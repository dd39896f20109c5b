"""Run-time span tracing of specmeas's public functions.

Nothing under ``src/`` changes: ``Tracer.install`` replaces each traced
function by a wrapper that records a span (name, start, end, parent span,
item id) and ``Tracer.uninstall`` puts the originals back.

Rebinding rule.  ``from .linalg import frob_norm`` copies the function object
into the importing module, so replacing ``linalg.frob_norm`` alone would miss
those calls.  For a module-level function the wrapper therefore replaces
every global of every loaded ``specmeas`` module that *is* the original
object, and every value of a module-level dict that is (``harness.VERIFIERS``
maps kinds to the verifiers).  Function-local imports such as
``from .linalg import eig_hermitian`` inside ``blocks.psi_apply`` resolve at
call time and need nothing more.  Methods are replaced once, on their class.
``Tracer.leftover_originals`` lists any reference the rule missed.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

import numpy as np

LAYERS = ("linalg", "algebra", "measure", "nnsm", "blocks", "serialize", "harness")

# "<layer>.<function>" or "<layer>.<Class>.<method>"; a trailing "*" also
# reports the inclusive time as ``.total_ms``.
TRACED = (
    "linalg.eig_hermitian", "linalg.frob_norm", "linalg.op_norm",
    "linalg.positive_negative_parts",
    "algebra.bicommutant*", "algebra.sample_projections*",
    "algebra.linear_extend*", "algebra.decompose_over_family",
    "algebra.joint_diagonalize*", "algebra.limiting_sequence",
    "algebra.LimitingSequence.term", "algebra.VonNeumannAlgebra.coefficients",
    "measure.evaluate", "measure.SpectralMeasure.validate",
    "nnsm.integrate*", "nnsm.assemble_from_family*",
    "nnsm.NonNegSpectralMeasure.apply", "nnsm.NonNegSpectralMeasure.measure_for",
    "nnsm.FamilyMeasures.extend_at", "nnsm.condition1_check",
    "nnsm.condition3_check*",
    "blocks.psi_apply*", "blocks.rho_apply", "blocks.i_m_apply",
    "blocks.d_alpha_check*", "blocks.integrability_check",
    "serialize.nnsm_to_doc", "serialize.nnsm_from_doc", "serialize.dump",
    "serialize.load",
    "harness.gen_scenario", "harness.verify_theorem_a",
    "harness.verify_theorem_b", "harness.verify_theorem_c",
    "harness.verify_theorem_d", "harness.characterization_reports",
    "harness.fault_report", "harness.check_measure_file",
)

NAMES = tuple(t.rstrip("*") for t in TRACED)
WITH_TOTAL = frozenset(t.rstrip("*") for t in TRACED if t.endswith("*"))

# (metric, numerator description, denominator description)
RATIOS = (
    ("algebra.sample_projections.kept_ratio", "members kept",
     "candidate eig_hermitian calls in sample_projections"),
    ("algebra.linear_extend.repeat_family_share", "calls on a family seen "
     "earlier in the item", "linear_extend calls"),
    ("algebra.linear_extend.repeat_assignment_share", "calls with the previous "
     "call's assignment", "linear_extend calls"),
)


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for name in NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        if name in WITH_TOTAL:
            units[f"{name}.total_ms"] = "ms"
    units["blocks.DomainVector.created"] = "count"
    for metric, _, _ in RATIOS:
        units[metric] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


def _same_assignment(a, b) -> bool:
    return len(a) == len(b) and all(
        x is y or np.array_equal(x, y) for x, y in zip(a, b)
    )


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall."""

    def __init__(self):
        self.spans: list = []  # (name index, start, end, parent index, item)
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.total_s = [0.0] * len(NAMES)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.created = 0
        self.kept = 0
        self.extend_calls = 0
        self.repeat_family = 0
        self.repeat_assignment = 0
        self.item = None
        self._stack: list = []   # open span indices
        self._child: list = []   # time covered by children of each open span
        self._undo: list = []    # (container, key, original)
        self._originals: dict = {}  # id -> original function
        self._families: dict = {}
        self._previous_assignment = None

    # -- items ------------------------------------------------------------

    def start_item(self, item) -> None:
        """Label the following spans; repeat shares are counted per item."""
        self.item = item
        self._families = {}
        self._previous_assignment = None

    # -- ratio observers --------------------------------------------------

    def _observe_extend(self, args, kwargs) -> None:
        family = args[0] if args else kwargs["family"]
        assignment = args[1] if len(args) > 1 else kwargs["assignment"]
        self.extend_calls += 1
        if id(family) in self._families:
            self.repeat_family += 1
        else:
            # keep the object so its id cannot be reused within the item
            self._families[id(family)] = family
        prev = self._previous_assignment
        if prev is not None and _same_assignment(prev, assignment):
            self.repeat_assignment += 1
        self._previous_assignment = list(assignment)

    def _observe_sampled(self, result) -> None:
        fixed = 2 if result.algebra.contains_identity else 1
        self.kept += len(result.members) - fixed

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, index: int, layer: str, before=None, after=None):
        spans, stack, child = self.spans, self._stack, self._child
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        errors = self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1] if stack else -1
            span = len(spans)
            spans.append(None)
            stack.append(span)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                dur = t1 - t0
                calls[index] += 1
                self_s[index] += dur - inner
                total_s[index] += dur
                if child:
                    child[-1] += dur
                spans[span] = (index, t0, t1, parent, self.item)
            if after is not None:
                after(result)
            return result

        return traced

    def _replace(self, container, key, original, wrapper) -> None:
        if isinstance(container, dict):
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)
        self._undo.append((container, key, original))

    def install(self) -> None:
        import specmeas.blocks as blocks

        modules = _specmeas_modules()
        hooks = {
            "algebra.linear_extend": (self._observe_extend, None),
            "algebra.sample_projections": (None, self._observe_sampled),
        }
        for index, name in enumerate(NAMES):
            layer, *path = name.split(".")
            owner = modules[f"specmeas.{layer}"]
            if len(path) == 2:
                owner = getattr(owner, path[0])
            attr = path[-1]
            original = owner.__dict__[attr]
            before, after = hooks.get(name, (None, None))
            wrapper = self._wrap(original, index, layer, before, after)
            self._originals[id(original)] = original
            if len(path) == 2:  # a method: replaced once, on its class
                self._replace(owner, attr, original, wrapper)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, original, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._replace(value, k, original, wrapper)

        cls = blocks.DomainVector
        post_init = cls.__dict__["__post_init__"]

        def counted(vector):
            self.created += 1
            post_init(vector)

        self._replace(cls, "__post_init__", post_init, counted)

    def uninstall(self) -> None:
        for container, key, original in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._undo.clear()

    def leftover_originals(self) -> list:
        """Module globals or module-level dict values still bound to an
        original traced function while installed (should be empty)."""
        def is_original(value) -> bool:
            return id(value) in self._originals and \
                self._originals[id(value)] is value

        out = []
        for mod_name, module in _specmeas_modules().items():
            for key, value in vars(module).items():
                if is_original(value):
                    out.append(f"{mod_name}.{key}")
                elif isinstance(value, dict):
                    out += [f"{mod_name}.{key}[{k!r}]"
                            for k, v in value.items() if is_original(v)]
        return out

    # -- results ----------------------------------------------------------

    def sampled_candidates(self) -> int:
        """eig_hermitian spans whose parent span is sample_projections."""
        eig = NAMES.index("linalg.eig_hermitian")
        sampler = NAMES.index("algebra.sample_projections")
        spans = self.spans
        return sum(1 for s in spans
                   if s[0] == eig and s[3] >= 0 and spans[s[3]][0] == sampler)

    def ratios(self) -> dict:
        """metric -> (numerator, denominator)."""
        return {
            RATIOS[0][0]: (self.kept, self.sampled_candidates()),
            RATIOS[1][0]: (self.repeat_family, self.extend_calls),
            RATIOS[2][0]: (self.repeat_assignment, self.extend_calls),
        }

    def metrics(self, overhead_frac: float) -> dict:
        """Every per-layer metric -> value."""
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_ms"] = 1000.0 * self.self_s[i]
            if name in WITH_TOTAL:
                out[f"{name}.total_ms"] = 1000.0 * self.total_s[i]
        out["blocks.DomainVector.created"] = self.created
        for metric, (num, den) in self.ratios().items():
            out[metric] = num / den if den else 0.0
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_spans(self, path) -> None:
        """Spans as gzip JSON lines: a header, then one array per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": NAMES, "fields": [
                "name", "start_s", "end_s", "parent", "item"]}) + "\n")
            for index, t0, t1, parent, item in self.spans:
                fh.write(f'[{index},{t0:.9f},{t1:.9f},{parent},"{item}"]\n')


def _specmeas_modules() -> dict:
    import specmeas.harness  # noqa: F401  (loads every traced layer)
    import specmeas.serialize  # noqa: F401

    return {name: mod for name, mod in sys.modules.items()
            if name.startswith("specmeas.") and mod is not None}
