"""In-memory spans and the layer wrappers of the traced benchmark run.

The traced run wraps each layer's public entry point from outside the
package.  Names are patched where they are looked up: `cegis` binds
`train`, `loss`, `verify`, `augment` and `sample_dataset` at import, so
those are patched on `kbarrier.cegis`; `learner.train` reaches `loss` and
`gradient` through the `kbarrier.learner` globals, so patching those counts
every epoch without a span per epoch; `Tape` methods are patched on the
class, which every caller shares.

`verify` compiles one Tape per negated condition, in the fixed order
I, U, E1, E2.  A Tape compiled directly inside a `verifier.verify` span
therefore opens the `verifier.search` span of the next condition, and its
evaluations are attributed to that condition.

Wrappers record only while a span is open, so the benchmark's own
correctness checks, which run between operations, are not traced.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

CONDITION_TAGS = ("I", "U", "E1", "E2")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    run: int
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run, "attrs": self.attrs}


class Tracer:
    """Span stack plus the patches that feed it; `uninstall` restores every patch."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.run = 0
        self._patches: list[tuple[object, str, object]] = []

    @property
    def top(self) -> Span | None:
        return self.spans[self.stack[-1]] if self.stack else None

    def open(self, name: str, **attrs) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.run, attrs=attrs))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close_through(self, index: int) -> None:
        """Close `index` and any span still open inside it."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top].end = now
            if top == index:
                return

    @contextmanager
    def span(self, name: str, **attrs):
        index = self.open(name, **attrs)
        try:
            yield self.spans[index]
        finally:
            self.close_through(index)

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spanned(self, name: str, fn, after=None):
        """`fn` wrapped in a span; `after(span, args, result)` may annotate it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self.spans[index], args, result)
                return result
            finally:
                self.close_through(index)

        return wrapper

    def install(self, kb) -> None:
        """Wrap the layer entry points of the kbarrier modules in namespace `kb`."""
        cegis, learner, verifier, tape_cls = kb.cegis, kb.learner, kb.verifier, kb.expr.Tape

        self.patch(cegis, "run", self.spanned("cegis.run", cegis.run))
        for attr, name in (("train", "learner.train"), ("loss", "learner.loss"),
                           ("sample_dataset", "learner.sample_dataset"),
                           ("augment", "cegis.augment")):
            self.patch(cegis, attr, self.spanned(name, getattr(cegis, attr)))

        def record_verdict(span, args, verdict):
            span.attrs.update(kind=verdict.kind, boxes=verdict.boxes_explored)

        for owner in (cegis, verifier):
            self.patch(owner, "verify",
                       self.spanned("verifier.verify", verifier.verify, after=record_verdict))

        def in_train() -> Span | None:
            top = self.top
            return top if top is not None and top.name == "learner.train" else None

        loss_fn, gradient_fn = learner.loss, learner.gradient

        @functools.wraps(loss_fn)
        def counted_loss(*args, **kwargs):
            result = loss_fn(*args, **kwargs)
            train = in_train()
            if train is not None and result[0] == 0.0:
                train.attrs["zero_loss_seen"] = True
            return result

        @functools.wraps(gradient_fn)
        def counted_gradient(params, data, *args, **kwargs):
            train = in_train()
            if train is not None:
                attrs = train.attrs
                attrs["epochs"] = attrs.get("epochs", 0) + 1
                attrs["rows"] = attrs.get("rows", 0) + data.size
                if attrs.get("zero_loss_seen"):
                    attrs["dead_epochs"] = attrs.get("dead_epochs", 0) + 1
            return gradient_fn(params, data, *args, **kwargs)

        self.patch(learner, "loss", counted_loss)
        self.patch(learner, "gradient", counted_gradient)

        tape_init, eval_boxes, eval_points = (
            tape_cls.__init__, tape_cls.eval_boxes, tape_cls.eval_points)

        @functools.wraps(tape_init)
        def traced_init(tape, roots):
            if not self.stack:
                return tape_init(tape, roots)
            if self.top.name == "verifier.search":
                self.close_through(self.stack[-1])
            if self.top.name == "verifier.verify":
                searches = self.top.attrs.get("searches", 0)
                self.top.attrs["searches"] = searches + 1
                self.open("verifier.search", tag=CONDITION_TAGS[searches])
            with self.span("expr.tape_compile") as span:
                tape_init(tape, roots)
                span.attrs["ops"] = len(tape.ops)

        @functools.wraps(eval_boxes)
        def traced_eval_boxes(tape, lo, hi):
            if not self.stack:
                return eval_boxes(tape, lo, hi)
            with self.span("expr.eval_boxes", rows=len(lo), ops=len(tape.ops)):
                return eval_boxes(tape, lo, hi)

        @functools.wraps(eval_points)
        def traced_eval_points(tape, points):
            if not self.stack:
                return eval_points(tape, points)
            with self.span("expr.eval_points", rows=len(points), ops=len(tape.ops)):
                return eval_points(tape, points)

        self.patch(tape_cls, "__init__", traced_init)
        self.patch(tape_cls, "eval_boxes", traced_eval_boxes)
        self.patch(tape_cls, "eval_points", traced_eval_points)


def _ancestor_names(spans: list[Span], span: Span):
    while span.parent is not None:
        span = spans[span.parent]
        yield span.name


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer totals divided by `ops` traced operations, and ratios of totals."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def seconds(name: str) -> float:
        return sum(s.seconds for s in named(name))

    def attr_sum(name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in named(name))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    train_s = seconds("learner.train")
    epochs = attr_sum("learner.train", "epochs")
    out["learner.train_s"] = train_s / ops
    out["learner.train_calls"] = len(named("learner.train")) / ops
    out["learner.epochs_run"] = epochs / ops
    out["learner.ms_per_epoch"] = ratio(1e3 * train_s, epochs)
    out["learner.rows_per_epoch"] = ratio(attr_sum("learner.train", "rows"), epochs)
    out["learner.dead_epoch_share"] = ratio(attr_sum("learner.train", "dead_epochs"), epochs)

    verify_s = seconds("verifier.verify")
    boxes = attr_sum("verifier.verify", "boxes")
    calls = len(named("verifier.verify"))
    out["verifier.verify_s"] = verify_s / ops
    out["verifier.calls"] = calls / ops
    out["verifier.boxes"] = boxes / ops
    out["verifier.boxes_per_s"] = ratio(boxes, verify_s)
    out["verifier.delta_sat_share"] = ratio(
        sum(s.attrs.get("kind") == "delta_sat" for s in named("verifier.verify")), calls)
    for tag in CONDITION_TAGS:
        def in_search(span):
            parent = spans[span.parent] if span.parent is not None else None
            return parent is not None and parent.name == "verifier.search" \
                and parent.attrs["tag"] == tag

        out[f"verifier.boxes.{tag}"] = sum(
            s.attrs["rows"] for s in named("expr.eval_boxes") if in_search(s)) / ops
        out[f"verifier.search_s.{tag}"] = sum(
            s.seconds for s in named("verifier.search") if s.attrs["tag"] == tag) / ops
    expr_in_verify = sum(
        s.seconds for name in ("expr.eval_boxes", "expr.eval_points", "expr.tape_compile")
        for s in named(name) if "verifier.verify" in _ancestor_names(spans, s))
    out["verifier.self_s"] = (verify_s - expr_in_verify) / ops

    box_s = seconds("expr.eval_boxes")
    box_ops = sum(s.attrs["rows"] * s.attrs["ops"] for s in named("expr.eval_boxes"))
    out["expr.eval_boxes_s"] = box_s / ops
    out["expr.eval_boxes.rows"] = attr_sum("expr.eval_boxes", "rows") / ops
    out["expr.eval_boxes.ns_per_box_op"] = ratio(1e9 * box_s, box_ops)
    out["expr.eval_points_s"] = seconds("expr.eval_points") / ops
    out["expr.eval_points.rows"] = attr_sum("expr.eval_points", "rows") / ops
    out["expr.tape_ops"] = attr_sum("expr.tape_compile", "ops") / ops
    out["expr.tape_compile_s"] = seconds("expr.tape_compile") / ops

    run_children = sum(s.seconds for s in spans
                       if s.parent is not None and spans[s.parent].name == "cegis.run")
    out["cegis.augment_s"] = seconds("cegis.augment") / ops
    out["cegis.self_s"] = (seconds("cegis.run") - run_children) / ops
    return out
