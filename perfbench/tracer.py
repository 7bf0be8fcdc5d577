"""Span tracer that wraps photonguide's public functions from outside.

Nothing in ``src/`` is edited: :meth:`Tracer.install` replaces every public
function and public method of each layer module with a timing wrapper, and
rebinds every other reference to the same function object that a photonguide
module holds (names bound by ``from .x import f``, and values of module-level
dicts such as ``verify.SUITES``), so calls cannot escape their spans.
:meth:`Tracer.uninstall` puts every rebound name back.

A span's self time is its duration minus the time covered by its child spans.
A layer's ``calls`` counts calls that enter the layer from outside it (from
another layer or from the benchmark); calls within a layer still open spans,
so the build/apply split of ``second_quantization`` stays visible.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from enum import Enum

LAYERS = (
    "momentum_basis",
    "position_operator",
    "dirac_like",
    "second_quantization",
    "waveguide_kinematics",
    "verify",
    "cli",
    "output",
)

# second_quantization spans that build operators or spaces; every other span
# of that layer applies them to states.
SQ_BUILD = frozenset({
    "MomentumLattice.__init__",
    "MomentumLattice.points",
    "MomentumLattice.gradient_matrix",
    "FockSpace.__init__",
    "FockSpace.annihilate",
    "FockSpace.create",
    "FockSpace.number_operator",
    "FockSpace.one_body_operator",
    "FockSpace.position_operators",
})

SUITE_SPANS = {
    "basis": "basis_suite",
    "position": "position_suite",
    "fock": "fock_suite",
    "dirac": "dirac_suite",
    "kinematics": "kinematics_suite",
}


class Tracer:
    """Collects per-span self and inclusive time plus boundary counts."""

    def __init__(self):
        self.stack: list[list] = []  # [layer, name, child_seconds]
        self.self_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.incl_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.frame_evals = 0
        self.apply_depth = 0
        self.fock_dim = 0
        self.x_nnz = 0
        self.rebound: list[tuple[object, str, object]] = []
        self.rebound_log: list[tuple[object, str, object]] = []

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        clock = time.perf_counter
        stack = self.stack
        self_s = self.self_s
        incl_s = self.incl_s
        key = (layer, name)
        is_apply = key == ("position_operator", "apply_position")
        is_basis = layer == "momentum_basis"
        probe = _PROBES.get(key)

        def wrapper(*args, **kwargs):
            if not stack or stack[-1][0] != layer:
                tracer.calls[layer] += 1
                if is_basis and tracer.apply_depth:
                    tracer.frame_evals += 1
            frame = [layer, name, 0.0]
            stack.append(frame)
            if is_apply:
                tracer.apply_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if is_apply:
                    tracer.apply_depth -= 1
                stack.pop()
                self_s[key] += elapsed - frame[2]
                incl_s[key] += elapsed
                if stack:
                    stack[-1][2] += elapsed
            if probe is not None:
                probe(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _rebind(self, container, key: str, new) -> None:
        if isinstance(container, dict):
            self.rebound.append((container, key, container[key]))
            container[key] = new
        else:
            self.rebound.append((container, key, container.__dict__[key]))
            setattr(container, key, new)

    def install(self) -> None:
        """Wrap every layer's public functions and methods, then rebind every
        other photonguide reference to the originals."""
        if self.rebound:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"photonguide.{layer}")
            if module is None:  # a layer the workload never imports does no work
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, layer, name)
                    wrappers[id(obj)] = wrapped
                    self._rebind(module.__dict__, name, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                    self._wrap_class(obj, layer)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "photonguide" or modname.startswith("photonguide.")):
                continue
            namespace = module.__dict__
            for name, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._rebind(namespace, name, wrappers[id(value)])
                elif isinstance(value, dict) and name.isupper():  # constant tables, never __builtins__
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._rebind(value, key, wrappers[id(item)])

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in ("__init__", "__call__")
            if not public:
                continue
            name = f"{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                self._rebind(cls, attr, self._wrap(value, layer, name))
            elif isinstance(value, property) and value.fget is not None:
                self._rebind(cls, attr, property(self._wrap(value.fget, layer, name), value.fset, value.fdel, value.__doc__))
            elif isinstance(value, (classmethod, staticmethod)):
                self._rebind(cls, attr, type(value)(self._wrap(value.__func__, layer, name)))

    def uninstall(self) -> None:
        """Put back every name :meth:`install` rebound, newest first."""
        for container, key, original in reversed(self.rebound):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self.rebound_log = list(self.rebound)
        self.rebound = []

    def restored(self) -> bool:
        """True when every name rebound by the last install holds its original."""
        for container, key, original in self.rebound_log:
            current = container[key] if isinstance(container, dict) else container.__dict__[key]
            if current is not original:
                return False
        return True

    # --- results ------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(v for (lay, _), v in self.self_s.items() if lay == layer)

    def totals(self) -> dict[str, float]:
        """Per-layer totals over everything traced so far (not per op)."""
        sq_build = sum(v for (lay, name), v in self.self_s.items()
                       if lay == "second_quantization" and name in SQ_BUILD)
        out = {
            "momentum_basis.calls": self.calls["momentum_basis"],
            "momentum_basis.self_s": self.layer_self("momentum_basis"),
            "position_operator.calls": self.calls["position_operator"],
            "position_operator.self_s": self.layer_self("position_operator"),
            "position_operator.frame_evals": self.frame_evals,
            "dirac_like.calls": self.calls["dirac_like"],
            "dirac_like.self_s": self.layer_self("dirac_like"),
            "second_quantization.build_s": sq_build,
            "second_quantization.apply_s": self.layer_self("second_quantization") - sq_build,
            "waveguide_kinematics.calls": self.calls["waveguide_kinematics"],
            "waveguide_kinematics.self_s": self.layer_self("waveguide_kinematics"),
            "verify.self_s": self.layer_self("verify"),
            "cli.main_s": self.incl_s[("cli", "main")],
            "output.render_s": self.layer_self("output"),
        }
        for suite, span in SUITE_SPANS.items():
            out[f"verify.{suite}_s"] = self.incl_s[("verify", span)]
        return out


def _probe_fock_dim(tracer: Tracer, args, result) -> None:
    tracer.fock_dim = max(tracer.fock_dim, len(args[0].basis))


def _probe_x_nnz(tracer: Tracer, args, result) -> None:
    tracer.x_nnz = max([tracer.x_nnz] + [x.nnz for x in result])


_PROBES = {
    ("second_quantization", "FockSpace.__init__"): _probe_fock_dim,
    ("second_quantization", "FockSpace.position_operators"): _probe_x_nnz,
}
