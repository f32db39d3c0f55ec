"""Regenerate the verification corpus (bench/corpus.jsonl) from synthesis runs.

Each (case study, seed) pair in HARVEST is synthesized in-process through
`kbarrier.cli.main`, exactly as `kbarrier synthesize` would run it.  Every
iteration record of the resulting report.json contributes its candidate
certificate, deduplicated by candidate text (the first occurrence wins).
Each corpus line keeps the candidate's provenance: case study, seed,
iteration, and the verdict the loop's verifier gave it at harvest time.

    python3 bench/harvest.py                 # rewrites bench/corpus.jsonl

The pendulum run takes about two minutes on a 2-core machine; the two
highly-nonlinear runs take about one minute together.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

from run import CORPUS_PATH, OUT_DIR, import_kbarrier

# highly-nonlinear seed 0 verifies (cheap counterexamples plus a full `valid`
# proof); seed 1 spins on delta-sat I boxes; pendulum seed 0 repeats a
# spurious delta-sat I box for its last ten iterations.
HARVEST = (("highly-nonlinear", 0), ("highly-nonlinear", 1), ("pendulum", 0))


def harvest(pairs=HARVEST) -> list[dict]:
    """Corpus entries from the synthesis reports of `pairs`, in harvest order."""
    cli = import_kbarrier().cli
    entries: list[dict] = []
    seen: set[str] = set()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for case, seed in pairs:
            outdir = Path(tmp) / f"{case}-{seed}"
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["synthesize", case, "--seed", str(seed), "--output-dir", str(outdir)])
            report = json.loads((outdir / "report.json").read_text())
            for record in report["records"]:
                if record["candidate"] in seen:
                    continue
                seen.add(record["candidate"])
                entries.append({
                    "id": f"{case}/s{seed}/i{record['iteration']}",
                    "case": case,
                    "seed": seed,
                    "iteration": record["iteration"],
                    "verdict": record["verdict"],
                    "condition": record["condition"],
                    "candidate": record["candidate"],
                })
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(CORPUS_PATH))
    args = parser.parse_args(argv)
    entries = harvest()
    with open(args.output, "w") as fh:
        for entry in entries:
            fh.write(json.dumps(entry) + "\n")
    print(f"wrote {len(entries)} certificates to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
