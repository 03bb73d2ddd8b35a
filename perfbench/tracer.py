"""Span tracer that wraps flatlink's public functions from the outside.

Every listed function is replaced at every binding where it is looked up:
the defining module and each flatlink module that imported it by name.
Class attributes (`QMatrix.__matmul__`, `FlatX.transport`) are patched on the
class. `uninstall` puts every original back.

Spans are recorded only while an op is open (`tracer.op` is not None), so
input generation and correctness checks between ops stay out of the trace.
They are kept in flat arrays (name index, start, end, parent, op id) so a
descent with hundreds of thousands of `det` calls stays small in memory, and
`write` dumps them as tab-separated lines when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute, span name, class name or None)
TARGETS = [
    ("qkernel", "__matmul__", "qkernel.matmul", "QMatrix"),
    ("qkernel", "det", "qkernel.det", None),
    ("qkernel", "kernel_basis", "qkernel.kernel_basis", None),
    ("qkernel", "inverse", "qkernel.inverse", None),
    ("qkernel", "char_poly", "qkernel.char_poly", None),
    ("qkernel", "sturm_distinct_real_roots", "qkernel.sturm", None),
    ("qkernel", "irreducible_over_Q", "qkernel.irreducible", None),
    ("symspace", "flat_membership_system", "symspace.membership_system", None),
    ("symspace", "subspace_membership_system", "symspace.membership_system", None),
    ("symspace", "flat_from_tau", "symspace.flat_from_tau", None),
    ("symspace", "subspace_from_rho", "symspace.subspace_from_rho", None),
    ("symspace", "intersect", "symspace.intersect", None),
    ("symspace", "intersection_sign", "symspace.intersection_sign", None),
    ("symspace", "transport", "symspace.transport", "FlatX"),
    ("projlink", "link_decision", "projlink.link_decision", None),
    ("projlink", "common_flags", "projlink.common_flags", None),
    ("boundary", "common_associated_subspaces", "boundary.common_associated_subspaces", None),
    ("boundary", "is_associated", "boundary.is_associated", None),
    ("boundary", "flag_preserved_by", "boundary.flag_preserved_by", None),
    ("construct", "synthesize_pattern", "construct.synthesize_pattern", None),
    ("construct", "tau_for_arrangement", "construct.tau_for_arrangement", None),
    ("construct", "rationalize_pattern", "construct.rationalize_pattern", None),
    ("construct", "rationalize_tau", "construct.rationalize_tau", None),
    ("congruence", "enumerate_same_sign", "congruence.enumerate_same_sign", None),
]

MODULES = ("qkernel", "symspace", "projlink", "boundary", "construct", "congruence")

# span names reported as <name>.calls / <name>.self_s; tau_for_arrangement is
# traced only to count synthesis attempts
REPORTED = sorted({name for _, _, name, _ in TARGETS} - {"construct.tau_for_arrangement"})

MARK = "__perfbench_original__"


def ball_points(m: int, q: int, bound: int) -> int:
    """Size of the congruence ball {I + qK : |entries| <= bound} in M_m(Z)."""
    diag = (bound - 1) // q + (bound + 1) // q + 1
    off = 2 * (bound // q) + 1
    return diag**m * off ** (m * m - m)


def _max_bits(M) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for r in M.rows for x in r),
        default=0,
    )


def _rounds(args, kwargs, result) -> int:
    start = kwargs.get("denom_bound", args[1] if len(args) > 1 else 64)
    bound, rounds = result[1], 1
    while start < bound:
        start *= 4
        rounds += 1
    return rounds


# per-call attributes kept alongside a span: name -> f(args, kwargs, result)
ATTRS = {
    "qkernel.kernel_basis": lambda a, k, r: (a[0].nrows, a[0].ncols, _max_bits(a[0])),
    "qkernel.irreducible": lambda a, k, r: len(r.patterns),
    "symspace.intersect": lambda a, k, r: r.kind.value,
    "construct.synthesize_pattern": lambda a, k, r: r.N,
    "construct.rationalize_pattern": _rounds,
    "congruence.enumerate_same_sign": lambda a, k, r: (
        ball_points(a[0].nrows, a[2].modulus, k.get("entry_bound", a[3] if len(a) > 3 else None)),
        len(r),
        len({h.sign for h in r}) > 1,
    ),
}


def unit_of(metric: str) -> str:
    if metric.endswith("self_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    return "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.opid = array("l")
        self.attrs: dict[int, object] = {}
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn):
        if span not in self._name_ix:
            self._name_ix[span] = len(self.names)
            self.names.append(span)
        ix = self._name_ix[span]
        attr = ATTRS.get(span)
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            me = len(tracer.start)
            tracer.name.append(ix)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.opid.append(tracer.op)
            tracer.end.append(0.0)
            stack.append(me)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[me] = clock()
                stack.pop()
            if attr is not None:
                tracer.attrs[me] = attr(args, kwargs, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self):
        """Wrap every target at every binding; flatlink must be imported."""
        mods = {n: sys.modules["flatlink." + n] for n in MODULES}
        by_id: dict[int, object] = {}
        for mod, attr, span, cls in TARGETS:
            if cls is not None:
                owner = getattr(mods[mod], cls)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(span, original))
            else:
                original = getattr(mods[mod], attr)
                by_id[id(original)] = self._wrap(span, original)
        for name, scope in sorted(sys.modules.items()):
            if not name.startswith("flatlink"):
                continue
            for attr, value in list(vars(scope).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._patch(scope, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(wrapper, MARK)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                f.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                    f"\t{self.parent[i]}\t{self.opid[i]}\n"
                )

    def metrics(self, traced_s: float, scale: float = 1.0) -> dict:
        """Per-layer metrics from the recorded spans; traced_s is the summed
        duration of the traced blocks, so bench.self_s is the time in them
        outside every span. Every time is multiplied by `scale`."""
        n = len(self.start)
        names = self.names
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = dict.fromkeys(REPORTED, 0)
        self_s = dict.fromkeys(REPORTED, 0.0)
        calls["construct.tau_for_arrangement"] = 0
        self_s["construct.tau_for_arrangement"] = 0.0
        root_s = 0.0
        # nearest enclosing synthesize / enumerate span of each span
        synth_of = array("l", [-1]) * n
        enum_of = array("l", [-1]) * n
        attempts: dict[int, int] = {}
        survivors = 0
        for i in range(n):
            name = names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            p = self.parent[i]
            if p < 0:
                root_s += dur
            else:
                synth_of[i] = p if names[self.name[p]] == "construct.synthesize_pattern" else synth_of[p]
                enum_of[i] = p if names[self.name[p]] == "congruence.enumerate_same_sign" else enum_of[p]
            if name == "construct.tau_for_arrangement" and synth_of[i] >= 0:
                attempts[synth_of[i]] = attempts.get(synth_of[i], 0) + 1
            elif name == "symspace.transport" and enum_of[i] >= 0:
                survivors += 1

        out = {}
        for name in REPORTED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name] * scale
        for mod in MODULES:
            out[f"{mod}.self_s"] = scale * sum(
                v for k, v in self_s.items() if k.startswith(mod + ".")
            )

        def attrs_of(span):
            return [(i, v) for i, v in self.attrs.items() if names[self.name[i]] == span]

        kb = [v for _, v in attrs_of("qkernel.kernel_basis")]
        out["qkernel.kernel_basis.max_rows"] = max((v[0] for v in kb), default=0)
        out["qkernel.kernel_basis.max_cols"] = max((v[1] for v in kb), default=0)
        out["qkernel.kernel_basis.max_input_bits"] = max((v[2] for v in kb), default=0)

        out["qkernel.irreducible.primes_used"] = sum(v for _, v in attrs_of("qkernel.irreducible"))
        kinds = [v for _, v in attrs_of("symspace.intersect")]
        out["symspace.intersect.transverse"] = kinds.count("TransversePoint")
        out["symspace.intersect.empty"] = kinds.count("Empty")
        out["symspace.intersect.degenerate"] = kinds.count("Degenerate")

        synth = attrs_of("construct.synthesize_pattern")
        out["construct.synthesize_pattern.attempts"] = (
            sum(attempts.get(i, 0) / N for i, N in synth) / len(synth) if synth else 0.0
        )
        rounds = [v for _, v in attrs_of("construct.rationalize_pattern")]
        out["construct.rationalize_pattern.rounds"] = sum(rounds) / len(rounds) if rounds else 0.0

        descents = [v for _, v in attrs_of("congruence.enumerate_same_sign")]
        ball = sum(b for b, _, _ in descents)
        hits = sum(h for _, h, _ in descents)
        out["congruence.ball_points"] = ball
        out["congruence.survivors"] = survivors
        out["congruence.hits"] = hits
        out["congruence.survivor_ratio"] = survivors / ball if ball else 0.0
        out["congruence.hit_ratio"] = hits / survivors if survivors else 0.0
        out["congruence.mixed_sign_descents"] = sum(mixed for _, _, mixed in descents)

        out["bench.self_s"] = (traced_s - root_s) * scale
        return out
