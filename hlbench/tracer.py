"""Layer spans recorded from outside hyperlat.

`Tracer.install()` replaces selected public functions of hyperlat with
timing wrappers in every hyperlat module namespace that holds them, so
both `from .forms import f` bindings and module-internal calls go through
the wrapper.  Each span records its duration and the time its child spans
cover; self time is the difference.  Counters read the return value (or
the exception) of the wrapped call.  Nothing in hyperlat is edited.

linalg hot-loop helpers (`mat_mul`, `mat_vec`, ...) are left unwrapped:
wrapping them would cost more than they do, and their time shows in their
callers' self time.
"""

from __future__ import annotations

import sys
import time


def _notes_skipped(verdict):
    return {"moduli_skipped": sum(1 for n in verdict.notes if "skipped" in n)}


def _classes(cls):
    return {cls.kind: 1}


# (module, attribute, span name, counter function of the result)
TARGETS = (
    ("forms", "enumerate_norm_vectors", "forms.enumerate_norm_vectors",
     lambda r: {"vectors": len(r)}),
    ("forms", "root_existence", "forms.root_existence", _notes_skipped),
    ("forms", "rational_isotropy", "forms.rational_isotropy", None),
    ("forms", "primitive_isotropic_vectors", "forms.primitive_isotropic_vectors", None),
    ("polynomials", "charpoly", "polynomials.charpoly", None),
    ("polynomials", "count_roots_gt", "polynomials.count_roots_gt", None),
    ("polynomials", "bracket_largest_root_above",
     "polynomials.bracket_largest_root_above", None),
    ("polynomials", "refine_bracket", "polynomials.refine_bracket", None),
    ("polynomials", "minimal_polynomial_of_root",
     "polynomials.minimal_polynomial_of_root", None),
    ("polynomials", "cyclotomic_factorization",
     "polynomials.cyclotomic_factorization", None),
    ("polynomials", "identity_power_order", "polynomials.identity_power_order", None),
    ("isometry", "_classify", "isometry.classification", _classes),
    ("isometry", "entropy", "isometry.entropy", None),
    ("isometry", "fixed_boundary_points", "isometry.fixed_boundary_points", None),
    ("isometry", "make_isometry", "isometry.make_isometry", None),
    ("groups", "elements_up_to", "groups.elements_up_to",
     lambda r: {"elements": len(r)}),
    ("groups", "dirichlet_domain", "groups.dirichlet_domain", None),
    ("groups", "tiling_check", "groups.tiling_check",
     lambda r: {"samples": r["samples"]}),
    ("groups", "orbit", "groups.orbit", None),
    ("groups", "limit_points_sample", "groups.limit_points_sample", None),
    ("groups", "chamber_walk", "groups.chamber_walk",
     lambda r: {"steps": len(r.word)}),
    ("cones", "extreme_rays", "cones.extreme_rays",
     lambda r: {"rays": len(r.rays or ())}),
    ("cones", "irredundant_halfspaces", "cones.irredundant_halfspaces", None),
    ("cones", "polytope_hypothesis_check", "cones.polytope_hypothesis_check", None),
    ("model", "pick_cone", "model.pick_cone", None),
    ("model", "to_ball", "model.to_ball", None),
    ("lattice", "build_lattice", "lattice.build_lattice", None),
    ("criteria", "k3_report", "criteria.k3_report", None),
    ("criteria", "genus_one_fibration_test", "criteria.genus_one_fibration_test", None),
    ("criteria", "entropy_report", "criteria.entropy_report", None),
    ("cli", "load_lattice", "cli.load", None),
    ("cli", "load_matrix", "cli.load", None),
    ("cli", "load_group", "cli.load", None),
    ("cli", "emit", "cli.emit", None),
    ("cli", "main", "cli.main", None),
)

# Methods wrapped on their class: (module, class, method, span name).
METHOD_TARGETS = (("isometry", "Isometry", "inverse", "isometry.inverse"),)


class Tracer:
    """Span stack and per-name totals for one traced process."""

    def __init__(self):
        self._stack = []  # [start, time covered by children] per open span
        self._totals = {}

    def wrap(self, fn, name, counters=None, refused=None):
        stack = self._stack
        entry = self._totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if refused is not None and isinstance(exc, refused):
                    entry["refused"] = entry.get("refused", 0) + 1
                raise
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                entry["calls"] += 1
                entry["total_s"] += dur
                entry["self_s"] += dur - frame[1]
            if counters is not None:
                for key, value in counters(result).items():
                    entry[key] = entry.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every target in every loaded hyperlat module namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hyperlat" or n.startswith("hyperlat."))]
        errors = sys.modules["hyperlat.errors"]
        for mod_name, attr, name, counters in TARGETS:
            home = sys.modules["hyperlat." + mod_name]
            original = getattr(home, attr)
            refused = errors.BudgetExceeded if attr == "enumerate_norm_vectors" else None
            wrapped = self.wrap(original, name, counters, refused)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for mod_name, cls_name, method, name in METHOD_TARGETS:
            cls = getattr(sys.modules["hyperlat." + mod_name], cls_name)
            setattr(cls, method, self.wrap(getattr(cls, method), name))

    def totals(self) -> dict:
        return {name: dict(entry) for name, entry in self._totals.items()}
