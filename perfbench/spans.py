"""Span recording for the benchmark's traced runs.

Spans are recorded from the benchmark's side: :class:`Tracer` replaces
rigidkit's public functions (and every name other rigidkit modules imported
them under) with wrappers, and wraps ``numpy.linalg.svd/lstsq/solve`` so that
every factorization is seen whatever module calls it.  Each span holds a
name, start, end and parent; spans stay in memory as flat arrays until the
run ends.  Nothing here changes rigidkit's behaviour: wrappers call the
original and re-raise whatever it raises.
"""

import inspect
import sys
import time
from array import array

import numpy as np

#: rigidkit modules whose public module-level functions become spans; the
#: layer name is the module name ("_linalg" reported as "linalg").
TRACED_MODULES = ("_linalg", "spaces", "graphs", "frameworks", "kinematics",
                  "statics", "transforms", "maxwell_cremona", "cli")

#: Methods worth a span of their own: (module, class, method).
TRACED_METHODS = (
    ("graphs", "Graph", "has_edge"),
    ("graphs", "PlanarEmbedding", "dual_pairs"),
    ("transforms", "FrameworkMap", "__init__"),
    ("transforms", "FrameworkMap", "static_at"),
    ("transforms", "FrameworkMap", "kinematic_at"),
)

NUMPY_LINALG = ("svd", "lstsq", "solve")


def layer_of(module_name):
    return "linalg" if module_name == "_linalg" else module_name


def svd_flops(shape, compute_uv, full_matrices):
    """R-SVD operation count model (Golub & Van Loan, Table 5.5) from a shape.

    m >= n after transposing: values only 2mn^2 + 2n^3; thin U 6mn^2 + 20n^3;
    full U 4m^2 n + 22n^3.  A model of the work, not a measurement.
    """
    if len(shape) != 2 or 0 in shape:
        return 0.0
    m, n = max(shape), min(shape)
    if not compute_uv:
        return 2.0 * m * n * n + 2.0 * n ** 3
    if full_matrices:
        return 4.0 * m * m * n + 22.0 * n ** 3
    return 6.0 * m * n * n + 20.0 * n ** 3


class Tracer:
    """Installs span-recording wrappers and keeps the spans in flat arrays."""

    def __init__(self):
        self.names = []            # span-name table; span records hold indices
        self._name_ids = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patches = []         # (owner, attribute, original)
        self.svd = {"calls": 0, "uv_calls": 0, "flops": 0.0, "large": 0}
        self.linalg_failures = 0

    # --- recording --------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, func, name):
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = func.__doc__
        return traced

    def _wrap_numpy(self, func, short):
        inner = self._wrap(func, "linalg." + short)
        tracer = self

        def traced(*args, **kwargs):
            if short == "svd":
                a = args[0] if args else kwargs.get("a")
                compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
                full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
                shape = np.shape(a)
                tracer.svd["calls"] += 1
                tracer.svd["uv_calls"] += bool(compute_uv)
                tracer.svd["flops"] += svd_flops(shape, compute_uv, full)
                tracer.svd["large"] += len(shape) == 2 and min(shape) >= 100
            try:
                return inner(*args, **kwargs)
            except np.linalg.LinAlgError:
                tracer.linalg_failures += 1
                raise

        traced.__wrapped__ = func
        return traced

    # --- installing ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap rigidkit's functions and numpy.linalg's factorizations."""
        rk_modules = [m for n, m in sorted(sys.modules.items())
                      if (n == "rigidkit" or n.startswith("rigidkit.")) and m is not None]
        replacements = {}
        for short in TRACED_MODULES:
            mod = sys.modules["rigidkit." + short]
            layer = layer_of(short)
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                replacements[id(obj)] = (obj, self._wrap(obj, "%s.%s" % (layer, attr)))
        for mod in rk_modules:
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(sys.modules["rigidkit." + short], cls_name)
            label = cls_name if meth == "__init__" else "%s.%s" % (cls_name, meth)
            self._patch(cls, meth, self._wrap(getattr(cls, meth),
                                              "%s.%s" % (layer_of(short), label)))
        for short in NUMPY_LINALG:
            self._patch(np.linalg, short, self._wrap_numpy(getattr(np.linalg, short), short))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- analysis -------------------------------------------------------------

    def arrays(self):
        """(name ids, parents, durations, self times) as numpy arrays."""
        nid = np.frombuffer(self.name_ids, dtype=np.int32).astype(np.int64)
        par = np.frombuffer(self.parents, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=dur.size)
        return nid, par, dur, dur - child[: dur.size]

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                            parents=np.frombuffer(self.parents, dtype=np.int32),
                            starts=np.frombuffer(self.starts), ends=np.frombuffer(self.ends))


def _has_ancestor_in(mask, parents):
    """Per span: does any strict ancestor satisfy `mask`?  Pointer doubling."""
    jump = parents.copy()
    valid = jump >= 0
    safe = np.where(valid, jump, 0)
    hit = valid & mask[safe]
    while np.any(valid):
        nxt = np.where(valid, jump[safe], -1)
        nvalid = nxt >= 0
        nsafe = np.where(nvalid, nxt, 0)
        hit = hit | (valid & hit[safe])
        jump, valid, safe = nxt, nvalid, nsafe
    return hit


def layer_metrics(tracer, ops):
    """Per-layer figures from the recorded spans, normalized per op."""
    nid, par, dur, self_t = tracer.arrays()
    span_names = np.array(tracer.names, dtype=object)[nid] if nid.size else np.array([], dtype=object)
    layers = np.array([n.split(".", 1)[0] for n in span_names], dtype=object)
    per = 1.0 / max(ops, 1)

    def is_name(*wanted):
        return np.isin(span_names, wanted)

    def outer_time(mask):
        # time in spans of `mask` that are not nested inside another such span
        top = mask & ~_has_ancestor_in(mask, par)
        return float(dur[top].sum())

    def layer_self(layer):
        return float(self_t[layers == layer].sum())

    # conversions: euclid_*/sph_*/hyp_* between stress, reciprocal and lift
    mc_names = [n for n in tracer.names
                if n.split(".")[-1].split("_")[0] in ("euclid", "sph", "hyp")
                and n.startswith("maxwell_cremona.") and ("_to_" in n or "_from_" in n)]
    convert = is_name(*mc_names)
    convert_top = convert & ~_has_ancestor_in(convert, par)
    convert_calls = int(convert_top.sum())
    three_conn = is_name("graphs.is_3_connected")
    spaces_mask = layers == "spaces"

    m = {
        "linalg.svd_s": outer_time(is_name("linalg.svd")) * per,
        "linalg.svd_calls": tracer.svd["calls"] * per,
        "linalg.svd_uv_calls": tracer.svd["uv_calls"] * per,
        "linalg.svd_flops": tracer.svd["flops"] * per,
        "linalg.large_svd_per_op": tracer.svd["large"] * per,
        "linalg.lstsq_s": outer_time(is_name("linalg.lstsq")) * per,
        "linalg.solve_calls": int(is_name("linalg.solve").sum()) * per,
        "linalg.failures": tracer.linalg_failures * per,
        "kinematics.operator_s": outer_time(is_name("kinematics.rigidity_operator")) * per,
        "kinematics.operator_calls": int(is_name("kinematics.rigidity_operator").sum()) * per,
        "kinematics.self_s": layer_self("kinematics") * per,
        "statics.resolution_s": outer_time(is_name("statics.resolution_matrix")) * per,
        "statics.resolution_calls": int(is_name("statics.resolution_matrix").sum()) * per,
        "statics.bivector_s": outer_time(is_name("statics.bivector_map_matrix")) * per,
        "statics.self_s": layer_self("statics") * per,
        "spaces.s": outer_time(spaces_mask) * per,
        "spaces.calls": int(spaces_mask.sum()) * per,
        "transforms.map_s": outer_time(is_name("transforms.FrameworkMap")) * per,
        "transforms.transport_s": outer_time(is_name(
            "transforms.pogorelov_static", "transforms.pogorelov_kinematic",
            "transforms.pogorelov_stress")) * per,
        "transforms.transport_calls": int(is_name(
            "transforms.FrameworkMap.static_at", "transforms.FrameworkMap.kinematic_at").sum()) * per,
        "frameworks.load_s": outer_time(is_name("frameworks.load_framework")) * per,
        "frameworks.load_calls": int(is_name("frameworks.load_framework").sum()) * per,
        "frameworks.build_s": outer_time(is_name("frameworks.build_framework")) * per,
        "graphs.is_3_connected_s": outer_time(three_conn) * per,
        "graphs.is_3_connected_calls": int(three_conn.sum()) * per,
        "graphs.is_3_connected_per_convert": (int(three_conn.sum()) / convert_calls
                                              if convert_calls else 0.0),
        "graphs.laman_s": outer_time(is_name("graphs.laman_check")) * per,
        "graphs.laman_calls": int(is_name("graphs.laman_check").sum()) * per,
        "graphs.embedding_s": outer_time(is_name("graphs.validate_embedding")) * per,
        "graphs.dual_pairs_calls": int(is_name("graphs.PlanarEmbedding.dual_pairs").sum()) * per,
        "maxwell_cremona.convert_s": float(dur[convert_top].sum()) * per,
        "maxwell_cremona.convert_calls": convert_calls * per,
        "maxwell_cremona.self_s": layer_self("maxwell_cremona") * per,
        "cli.self_s": layer_self("cli") * per,
        "cli.calls": int(is_name("cli.main").sum()) * per,
        "trace.spans": int(nid.size) * per,
    }
    return m


def unit_of(name):
    """Unit of a per-layer metric: totals over the traced ops, divided per op."""
    if name == "trace.overhead_pct":
        return "%"
    if name == "graphs.is_3_connected_per_convert":
        return "calls/convert"
    if name == "linalg.svd_flops":
        return "flop/op"
    if name.endswith("_s") or name == "spaces.s":
        return "s/op"
    return "count/op"
