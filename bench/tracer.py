"""Per-module tracing from the benchmark side.

``Tracer.install`` rebinds public functions of the ``nlsob`` modules with
wrappers that record a span (name, parent span, start, end, info) per
call.  A function is also rebound under every name another ``nlsob``
module imported it as (``functionals.radial_pair_integrate``,
``quadrature.brentq``, ``quadrature.theta_reduced_kernel``, ...), so
calls between modules are seen too.  Spans stay in memory until the
study ends; ``metrics`` then turns them into the per-module numbers.  A
span's self time is its duration minus the durations of its children.
Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import statistics
import time

import numpy as np

# name, unit, better, what it should move (end-to-end metric and workload)
LAYER_METRICS = (
    ("fields.eval_points", "count", "lower", "study_s on mc_family"),
    ("fields.eval_s", "s", "lower", "study_s on mc_family"),
    ("fields.profile_points", "count", "lower", "study_s on radial_limit"),
    ("quadrature.theta_kernel_calls", "count", "lower",
     "study_s on radial_limit; ~0 on mc_family; unmoved on jump_envelope by an odd-N-only change"),
    ("quadrature.theta_kernel_pairs", "count", "lower",
     "study_s on radial_limit; ~0 on mc_family; unmoved on jump_envelope by an odd-N-only change"),
    ("quadrature.theta_kernel_s", "s", "lower",
     "study_s on radial_limit; ~0 on mc_family; unmoved on jump_envelope by an odd-N-only change"),
    ("quadrature.root_finds", "count", "lower", "study_s on radial_limit and jump_envelope"),
    ("quadrature.root_find_s", "s", "lower", "study_s on radial_limit and jump_envelope"),
    ("quadrature.radial_pair_calls", "count", "lower", "study_s on radial_limit"),
    ("quadrature.radial_pair_self_s", "s", "lower",
     "study_s on radial_limit; peak_rss_mb there if the r-loop is batched"),
    ("quadrature.mc_pair_calls", "count", "lower", "study_s on mc_family"),
    ("quadrature.mc_samples", "count", "lower", "study_s on mc_family"),
    ("quadrature.mc_pair_self_s", "s", "lower", "study_s on mc_family"),
    ("quadrature.mc_s_per_chunk", "s", "lower", "study_s on mc_family"),
    ("quadrature.mc_ess_frac", "ratio", "higher", "err_budget_rel on mc_family"),
    ("quadrature.volume_calls", "count", "lower", "study_s on mc_family"),
    ("quadrature.volume_samples", "count", "lower", "study_s on mc_family"),
    ("quadrature.volume_self_s", "s", "lower", "study_s on mc_family"),
    ("functionals.pair_calls", "count", "lower", "study_s on jump_envelope"),
    ("functionals.pair_self_s", "s", "lower", "study_s on jump_envelope"),
    ("functionals.pair_unique_frac", "ratio", "higher", "study_s on radial_limit"),
    ("functionals.volume_unique_frac", "ratio", "higher", "study_s on mc_family"),
    ("functionals.probe_mc_calls", "count", "lower",
     "study_s and ok_frac on jump_envelope"),
    ("functionals.jump_s", "s", "lower", "study_s and ok_frac on jump_envelope"),
    ("functionals.verdict_misses", "count", "lower", "study_s and ok_frac on jump_envelope"),
    ("inequalities.check_calls", "count", "lower", "small everywhere; shows cost moved here"),
    ("inequalities.check_self_s", "s", "lower", "small everywhere; shows cost moved here"),
    ("limits.sweep_calls", "count", "lower", "small everywhere; shows cost moved here"),
    ("limits.self_s", "s", "lower", "small everywhere; shows cost moved here"),
    ("cli.command_calls", "count", "lower", "study_s and setup_s on mc_family and jump_envelope"),
    ("cli.self_s", "s", "lower", "study_s and setup_s on mc_family and jump_envelope"),
    ("cli.out_bytes", "bytes", "lower", "study_s and setup_s on mc_family and jump_envelope"),
    ("process.sys_s", "s", "lower",
     "study_s and cpu_s on radial_limit (page faults of temporary arrays)"),
    ("process.minor_faults", "count", "lower",
     "study_s and cpu_s on radial_limit (page faults of temporary arrays)"),
    ("trace.overhead_frac", "ratio", "lower", "nothing; the cost of tracing itself"),
)

_PAIR_FNS = ("i_delta", "i_delta_p", "f_functional", "i_delta_magnetic",
             "i_delta_magnetic_paired")
_VOLUME_FNS = ("entropy_l2_estimate", "l2_norm_sq_estimate", "lp_power_integral")
_CHECK_FNS = ("check_nonlocal_sobolev", "check_logsobolev_main", "check_envelope_lsi",
              "check_magnetic_lsi", "check_diamagnetic", "check_gauss_lsi",
              "check_euclidean_family", "check_small_set_bound", "check_jensen",
              "sweep_family")
_LIMIT_FNS = ("delta_sweep", "estimate_qn", "check_upper_bound", "recover_classical_lsi")


def _describe(arg):
    if hasattr(arg, "to_dict"):
        return arg.to_dict()
    if hasattr(arg, "mc") and hasattr(arg, "radial"):  # EngineSpec has no to_dict
        return {"mc": arg.mc.to_dict(), "radial": arg.radial.to_dict(), "mode": arg.mode}
    return float(arg) if isinstance(arg, (int, float)) else repr(arg)


def call_key(fields_mod, fn_name: str, args) -> str:
    """``fn_name`` plus the public descriptor hash of the call's arguments
    (field, kernel, engine, potential dicts)."""
    return fn_name + ":" + fields_mod.descriptor_hash([_describe(a) for a in args])


def _n_points(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) < 2 else shape[0]


class Tracer:
    """In-memory span recorder; one per study process."""

    def __init__(self):
        self.spans = []          # [name, parent index, start, end, info]
        self._stack = []
        self.profile_points = 0
        self._profile_depth = 0

    def wrap(self, name, fn, info=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   None if info is None else info(args)]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(rec, out)
            return out

        return traced

    def _count_profile(self, g):
        def counted(r):
            if self._profile_depth == 0:
                self.profile_points += int(np.size(r))
            self._profile_depth += 1
            try:
                return g(r)
            finally:
                self._profile_depth -= 1
        return counted

    def install(self, modules: dict):
        """Rebind the traced functions in ``modules`` (name -> nlsob module)."""
        fields, quad, func = modules["fields"], modules["quadrature"], modules["functionals"]
        swaps = {}

        def hook(module, attr, name, info=None, after=None):
            orig = getattr(module, attr)
            swaps[id(orig)] = (orig, self.wrap(name, orig, info, after))

        def pair_info(fn_name):
            def info(args):
                u = getattr(args[0], "modulus", args[0])
                return {"key": call_key(fields, fn_name, args),
                        "jump": not math.isfinite(u.lipschitz_bound)}
            return info

        def mc_after(rec, out):
            rec[4]["n_eff"] = sum(e.n_effective for e in out)
            rec[4]["n_est"] = len(out)

        hook(quad, "theta_reduced_kernel", "quadrature.theta_kernel",
             info=lambda a: int(np.broadcast(a[0], a[1]).size))
        hook(quad, "brentq", "quadrature.root_find")
        hook(quad, "radial_pair_integrate", "quadrature.radial_pair")
        hook(quad, "mc_pair_integrate_many", "quadrature.mc_pair",
             info=lambda a: {"samples": a[1].n_samples,
                             "chunks": a[1].n_samples // a[1].chunk_size},
             after=mc_after)
        hook(quad, "mc_volume_value", "quadrature.volume", info=lambda a: a[3].n_samples)
        for fn in _PAIR_FNS:
            hook(func, fn, "functionals.pair", info=pair_info(fn))
        for fn in _VOLUME_FNS:
            hook(func, fn, "functionals.volume",
                 info=lambda a, fn=fn: call_key(fields, fn, a))
        for fn in _CHECK_FNS:
            hook(modules["inequalities"], fn, "inequalities." + fn)
        for fn in _LIMIT_FNS:
            hook(modules["limits"], fn, "limits." + fn)
        hook(modules["cli"], "main", "cli.main")

        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                hit = swaps.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

        for cls in vars(fields).values():
            if not (isinstance(cls, type) and issubclass(cls, fields.ScalarField)):
                continue
            if "evaluate" in vars(cls):
                cls.evaluate = self.wrap("fields.evaluate", vars(cls)["evaluate"],
                                         info=lambda a: _n_points(a[1]))
            if "radial_profile" in vars(cls):
                cls.radial_profile = self._wrap_profile(vars(cls)["radial_profile"])

    def _wrap_profile(self, method):
        @functools.wraps(method)
        def radial_profile(obj):
            prof = method(obj)
            if prof is None:
                return None
            return dataclasses.replace(prof, g=self._count_profile(prof.g))
        return radial_profile

    def metrics(self, out_bytes: int) -> dict:
        spans = self.spans
        dur = [s[3] - s[2] for s in spans]
        own = list(dur)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                own[s[1]] -= dur[i]

        def parent_name(i):
            p = spans[i][1]
            return spans[p][0] if p >= 0 else None

        def pair_ancestor(i):
            p = spans[i][1]
            while p >= 0 and spans[p][0] != "functionals.pair":
                p = spans[p][1]
            return p

        by_name = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(i)

        def idx(name):
            return by_name.get(name, [])

        def total(ids, values):
            return float(sum(values[i] for i in ids))

        evals = [i for i in idx("fields.evaluate") if parent_name(i) != "fields.evaluate"]
        theta = idx("quadrature.theta_kernel")
        roots = idx("quadrature.root_find")
        radial = idx("quadrature.radial_pair")
        mc = idx("quadrature.mc_pair")
        vol = idx("quadrature.volume")
        pairs = [i for i in idx("functionals.pair") if parent_name(i) != "functionals.pair"]
        vols = idx("functionals.volume")
        ineq = [i for i, s in enumerate(spans) if s[0].startswith("inequalities.")]
        lim = [i for i, s in enumerate(spans) if s[0].startswith("limits.")]
        cli = idx("cli.main")
        mc_samples = sum(spans[i][4]["samples"] for i in mc)
        mc_chunks = sum(spans[i][4]["chunks"] for i in mc)
        # a call that raised has no n_est / n_eff
        mc_slots = sum(spans[i][4]["samples"] * spans[i][4].get("n_est", 0) for i in mc)
        jump_pairs = [i for i in pairs if spans[i][4]["jump"]]
        probe_mc = [i for i in mc if pair_ancestor(i) >= 0
                    and spans[pair_ancestor(i)][4]["jump"]]

        def unique_frac(ids, key):
            return len({key(spans[i][4]) for i in ids}) / len(ids) if ids else 1.0

        return {
            "fields.eval_points": sum(spans[i][4] for i in evals),
            "fields.eval_s": total(evals, dur),
            "fields.profile_points": self.profile_points,
            "quadrature.theta_kernel_calls": len(theta),
            "quadrature.theta_kernel_pairs": sum(spans[i][4] for i in theta),
            "quadrature.theta_kernel_s": total(theta, dur),
            "quadrature.root_finds": len(roots),
            "quadrature.root_find_s": total(roots, dur),
            "quadrature.radial_pair_calls": len(radial),
            "quadrature.radial_pair_self_s": total(radial, own),
            "quadrature.mc_pair_calls": len(mc),
            "quadrature.mc_samples": mc_samples,
            "quadrature.mc_pair_self_s": total(mc, own),
            "quadrature.mc_s_per_chunk": total(mc, dur) / mc_chunks if mc_chunks else 0.0,
            "quadrature.mc_ess_frac": (sum(spans[i][4].get("n_eff", 0) for i in mc) / mc_slots
                                       if mc_slots else 0.0),
            "quadrature.volume_calls": len(vol),
            "quadrature.volume_samples": sum(spans[i][4] for i in vol),
            "quadrature.volume_self_s": total(vol, own),
            "functionals.pair_calls": len(pairs),
            "functionals.pair_self_s": total(idx("functionals.pair"), own),
            "functionals.pair_unique_frac": unique_frac(pairs, lambda info: info["key"]),
            "functionals.volume_unique_frac": unique_frac(vols, lambda info: info),
            "functionals.probe_mc_calls": len(probe_mc),
            "functionals.jump_s": total(jump_pairs, dur),
            "inequalities.check_calls": sum(1 for i in ineq
                                            if spans[i][0].startswith("inequalities.check_")),
            "inequalities.check_self_s": total(ineq, own),
            "limits.sweep_calls": len(idx("limits.delta_sweep")),
            "limits.self_s": total(lim, own),
            "cli.command_calls": len(cli),
            "cli.self_s": total(cli, own),
            "cli.out_bytes": out_bytes,
        }


def median_metrics(per_study: list) -> dict:
    """Median of each metric over the traced studies of one run."""
    return {k: statistics.median(m[k] for m in per_study) for k in per_study[0]}
