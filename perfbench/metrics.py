"""Metric names and units, and the per-layer numbers derived from one traced
iteration's spans. BENCHMARK.json lists the same names; a test keeps the
two in step."""

from __future__ import annotations

from spans import layer_busy, layer_self_times

WORKLOADS = ("ks_sweep", "occupation", "oracles")
DEFAULT_SEED = 314159
LAYERS = ("jump", "langevin", "verify", "ensembles", "finite")
KS_KINDS = ("m1", "m2", "mix")
KS_CELLS = tuple(f"{k}_e{j}" for k in KS_KINDS for j in (1, 2, 3))
IO_CALLS = ("write_csv", "write_binary", "read_csv", "read_binary")
VERIFY_BUSY = ("moment_report", "generator_convergence_probe", "folded_normal_moment",
               "displacement_chisquare", "compare_ensembles", "stationarity_chisquare")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("trace.wall_s", "s"),
    ("trace.setup_s", "s"),
    ("unattributed_s", "s"),
    ("tracing_overhead_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("jump.busy_s", "s"),
    *((f"jump.{cell}.busy_s", "s") for cell in KS_CELLS),
    *((f"jump.{cell}.accepted_events", "count") for cell in KS_CELLS),
    ("jump.m1.busy_s", "s"),
    ("jump.m2.busy_s", "s"),
    ("jump.accepted_events", "count"),
    ("jump.accepted_events_per_s", "1/s"),
    ("jump.obs_recorded", "count"),
    ("jump.first_jump_displacements.busy_s", "s"),
    ("jump.first_jump.samples_per_s", "1/s"),
    ("langevin.busy_s", "s"),
    ("langevin.path_steps_per_s", "1/s"),
    *((f"verify.{call}.busy_s", "s") for call in VERIFY_BUSY),
    ("verify.quad_calls", "count"),
    *((f"verify.{kind}.final_max_ks", "ks") for kind in KS_KINDS),
    ("verify.m1.chisq_p", "p"),
    ("verify.m2.chisq_p", "p"),
    ("verify.first_jump.chisq_p", "p"),
    *((f"ensembles.{call}.busy_s", "s") for call in IO_CALLS),
    ("ensembles.bytes_written", "bytes"),
    ("finite.busy_s", "s"),
    ("finite.competitors_per_s", "1/s"),
)


def _attr_sum(spans, name, key, label=None):
    return sum(s.attrs.get(key, 0) for s in spans
               if s.name == name and (label is None or s.label == label))


def _attr_of(spans, name, label, key):
    """The attribute of the named call, 0 when the workload makes no such call."""
    for s in spans:
        if s.name == name and s.label == label:
            return s.attrs[key]
    return 0.0


def _rate(count, seconds):
    return count / seconds if seconds > 0.0 else 0.0


def per_layer(spans):
    """Per-layer metrics of one traced iteration, keyed by name. The root
    span's self time is the iteration time no layer accounts for. A call a
    workload does not make reads 0."""
    sim = "jump.simulate_ensemble"
    selfs = layer_self_times(spans)
    m = {"unattributed_s": selfs.get("bench", 0.0)}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    m["jump.busy_s"] = layer_busy(spans, layer="jump")
    for cell in KS_CELLS:
        m[f"jump.{cell}.busy_s"] = layer_busy(spans, sim, cell)
        m[f"jump.{cell}.accepted_events"] = _attr_sum(spans, sim, "accepted_events", cell)
    for kind in ("m1", "m2"):
        m[f"jump.{kind}.busy_s"] = layer_busy(spans, sim, kind)
    events = _attr_sum(spans, sim, "accepted_events")
    m["jump.accepted_events"] = events
    m["jump.accepted_events_per_s"] = _rate(events, layer_busy(spans, sim))
    m["jump.obs_recorded"] = _attr_sum(spans, sim, "obs_recorded")
    first = "jump.first_jump_displacements"
    m[f"{first}.busy_s"] = layer_busy(spans, first)
    m["jump.first_jump.samples_per_s"] = _rate(_attr_sum(spans, first, "samples"),
                                                m[f"{first}.busy_s"])
    lang = "langevin.simulate_langevin"
    m["langevin.busy_s"] = layer_busy(spans, layer="langevin")
    m["langevin.path_steps_per_s"] = _rate(_attr_sum(spans, lang, "path_steps"),
                                           layer_busy(spans, lang))
    for call in VERIFY_BUSY:
        m[f"verify.{call}.busy_s"] = layer_busy(spans, f"verify.{call}")
    m["verify.quad_calls"] = sum(s.attrs.get("quad_calls", 0) for s in spans)
    for kind in KS_KINDS:
        m[f"verify.{kind}.final_max_ks"] = _attr_of(spans, "verify.compare_ensembles",
                                                    f"{kind}_e3", "max_ks")
    for kind in ("m1", "m2"):
        m[f"verify.{kind}.chisq_p"] = _attr_of(spans, "verify.stationarity_chisquare", kind, "p")
    m["verify.first_jump.chisq_p"] = _attr_of(spans, "verify.displacement_chisquare", "m2", "p")
    for call in IO_CALLS:
        m[f"ensembles.{call}.busy_s"] = layer_busy(spans, f"ensembles.{call}")
    m["ensembles.bytes_written"] = sum(s.attrs.get("bytes", 0) for s in spans
                                       if s.name.startswith("ensembles.write"))
    sweep = "finite.minimality_sweep"
    m["finite.busy_s"] = layer_busy(spans, layer="finite")
    m["finite.competitors_per_s"] = _rate(_attr_sum(spans, sweep, "competitors"),
                                          layer_busy(spans, sweep))
    return m
