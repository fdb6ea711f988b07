// End-to-end and per-layer benchmark of the CAVA simulator and allocation
// service. One process runs one workload (dense-ingest, sparse-place or
// serve-churn) generated from --seed, drives the program only through its
// public entry points, checks every output it sees, and prints one JSON
// object as its last line of standard output.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--toy]
//
// --trace 0 reports the end-to-end metrics of untraced repetitions; --trace 1
// alternates untraced and traced repetitions and reports the per-layer split
// read from an obs::TraceSession plus the benchmark's own spans. See
// README.md in this directory for the metric definitions.
#include "alloc/correlation_aware.h"
#include "alloc/placement.h"
#include "alloc/validate.h"
#include "corr/cost_matrix.h"
#include "corr/moments.h"
#include "corr/sparse_index.h"
#include "dvfs/vf_policy.h"
#include "obs/trace.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "sim/churn.h"
#include "sim/datacenter_sim.h"
#include "trace/synthesis.h"
#include "util/thread_pool.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace cava;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  bool serve = false;
  std::size_t vms = 0;
  std::size_t servers = 0;
  double hours = 0.0;
  double period_min = 60.0;
  bool sparse = false;
  // serve-churn only.
  std::size_t ticks = 0;
  double arrive = 0.0;
  double depart = 0.0;
  double initially_active = 1.0;
  std::size_t migration_budget = 0;
};

Workload make_workload(const std::string& name, bool toy) {
  Workload w;
  w.name = name;
  if (name == "dense-ingest") {
    w.vms = toy ? 60 : 1000;
    w.servers = toy ? 30 : 500;
    w.hours = toy ? 3.0 : 12.0;
  } else if (name == "sparse-place") {
    w.vms = toy ? 120 : 4000;
    w.servers = toy ? 60 : 2000;
    w.hours = toy ? 3.0 : 6.0;
    w.sparse = true;
  } else if (name == "serve-churn") {
    w.serve = true;
    w.vms = toy ? 60 : 800;
    w.servers = toy ? 30 : 400;
    w.hours = toy ? 2.0 : 12.0;
    w.period_min = 5.0;
    w.ticks = toy ? 12 : 120;
    w.arrive = 0.1;
    w.depart = 0.1;
    w.initially_active = 0.8;
    w.migration_budget = 50;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

/// Both program seeds derive from the one workload seed (splitmix64 over
/// distinct salts), so the program only ever sees generated inputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ salt;
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Inputs {
  std::uint64_t trace_seed = 0;
  std::uint64_t churn_seed = 0;
};

Inputs derive_inputs(std::uint64_t seed) {
  return {derive_seed(seed, 0x7472616365ULL), derive_seed(seed, 0x636875726eULL)};
}

sim::SimConfig make_config(const Workload& w) {
  sim::SimConfig cfg;
  cfg.max_servers = w.servers;
  cfg.period_seconds = 60.0 * w.period_min;
  cfg.vf_mode = sim::VfMode::kStatic;
  cfg.predictor = "last-value";
  if (w.sparse) {
    cfg.corr_mode = sim::CorrMode::kSparse;
    cfg.sparse_index.top_k = 16;
  }
  cfg.sparse_build_threads = 2;
  return cfg;
}

trace::TraceSet make_traces(const Workload& w, const Inputs& in) {
  trace::DatacenterTraceConfig tcfg;
  tcfg.num_vms = static_cast<int>(w.vms);
  // Setup-2 runs 40 VMs in 4 service groups; every workload keeps its 10
  // VMs per group, so group-level draws average out over the fleet.
  tcfg.num_groups = static_cast<int>(w.vms / 10);
  tcfg.day_seconds = 3600.0 * w.hours;
  tcfg.seed = in.trace_seed;
  return trace::generate_datacenter_traces(tcfg);
}

sim::ChurnSpec make_churn(const Workload& w, const Inputs& in) {
  sim::SyntheticChurnConfig c;
  c.num_vms = w.vms;
  c.num_periods = w.ticks;
  c.arrival_prob = w.arrive;
  c.departure_prob = w.depart;
  c.initial_active_fraction = w.initially_active;
  c.seed = in.churn_seed;
  return sim::ChurnSpec::synthetic(c);
}

// ---------------------------------------------------------------------------
// Forwarding wrappers: the benchmark's own boundary around the alloc and dvfs
// layers. They time (when traced) and record what the check path needs; they
// never alter a decision.

struct PlacementCall {
  std::vector<model::VmDemand> demands;
  alloc::Placement placement;
};

class TimedPlacement final : public alloc::PlacementPolicy {
 public:
  explicit TimedPlacement(obs::TraceSession* trace) : trace_(trace) {
    if (trace_ != nullptr) ev_ = trace_->event("bench.place", "vms", "evals");
  }

  alloc::Placement place(std::span<const model::VmDemand> demands,
                         const alloc::PlacementContext& context) override {
    starts_.push_back(now_s());
    const std::uint64_t t0 = trace_ != nullptr ? obs::TraceSession::now_ns() : 0;
    alloc::Placement out = inner_.place(demands, context);
    if (trace_ != nullptr) {
      trace_->complete(ev_, t0, obs::TraceSession::now_ns(), 2,
                       static_cast<double>(demands.size()),
                       static_cast<double>(inner_.last_candidate_evals()));
    }
    relax_rounds_ += inner_.last_relaxation_rounds();
    candidate_evals_ += inner_.last_candidate_evals();
    placed_vms_ += demands.size();
    calls_.push_back({{demands.begin(), demands.end()}, out});
    return out;
  }
  std::string name() const override { return inner_.name(); }

  const std::vector<double>& starts() const { return starts_; }
  const std::vector<PlacementCall>& calls() const { return calls_; }
  std::size_t relax_rounds() const { return relax_rounds_; }
  std::size_t candidate_evals() const { return candidate_evals_; }
  std::size_t placed_vms() const { return placed_vms_; }

 private:
  alloc::CorrelationAwarePlacement inner_;
  obs::TraceSession* trace_;
  obs::TraceSession::Id ev_ = 0;
  std::vector<double> starts_;
  std::vector<PlacementCall> calls_;
  std::size_t relax_rounds_ = 0;
  std::size_t candidate_evals_ = 0;
  std::size_t placed_vms_ = 0;
};

class TimedVf final : public dvfs::VfPolicy {
 public:
  explicit TimedVf(obs::TraceSession* trace) : trace_(trace) {
    if (trace_ != nullptr) ev_ = trace_->event("bench.vf_decide", "vms");
  }
  double raw_target(const dvfs::ServerView& view,
                    const model::ServerSpec& server) const override {
    return inner_.raw_target(view, server);
  }
  double decide(const dvfs::ServerView& view,
                const model::ServerSpec& server) const override {
    obs::TraceSpan span(trace_, ev_, static_cast<double>(view.num_vms));
    return inner_.decide(view, server);
  }
  std::string name() const override { return inner_.name(); }

 private:
  dvfs::CorrelationAwareVf inner_;
  obs::TraceSession* trace_;
  obs::TraceSession::Id ev_ = 0;
};

// ---------------------------------------------------------------------------
// Output checks.

/// Strict check of one placement against the demands it was computed from:
/// every VM exactly once, consistent bookkeeping, no server over capacity.
bool placement_ok(const alloc::Placement& placement,
                  std::span<const model::VmDemand> demands,
                  const model::FleetSpec& fleet, const std::string& where,
                  std::vector<std::string>& errors) {
  alloc::ValidationOptions opts;
  opts.strict_capacity = true;
  const std::vector<std::string> issues =
      alloc::validate_placement(placement, demands, fleet, opts);
  if (issues.empty()) return true;
  errors.push_back(where + ": " + issues.front() + " (" +
                   std::to_string(issues.size()) + " issue(s))");
  return false;
}

/// A placement that stacks every VM on server 0: the self-test feeds it to
/// the check path to prove an infeasible placement is counted as failed.
alloc::Placement stacked(std::size_t num_vms, std::size_t num_servers) {
  alloc::Placement p(num_vms, num_servers);
  for (std::size_t v = 0; v < num_vms; ++v) p.assign(v, 0);
  return p;
}

struct SimSummary {
  double energy_kwh = 0.0;
  double violation_pct = 0.0;
  double max_violation_pct = 0.0;
  double mean_active_servers = 0.0;
  double migrations = 0.0;

  static SimSummary of(const sim::SimResult& r) {
    return {r.total_energy_joules / 3.6e6, 100.0 * r.overall_violation_fraction,
            100.0 * r.max_violation_ratio, r.mean_active_servers,
            static_cast<double>(r.total_migrated_vms)};
  }
  bool operator==(const SimSummary&) const = default;
};

// ---------------------------------------------------------------------------
// One repetition: set up, run, check. With a trace session attached the same
// repetition also yields the per-layer split.

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> period_ms;  ///< per placement period / service tick
  SimSummary sim;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  // Counters the per-layer split reads.
  std::size_t periods = 0;
  std::size_t relax_rounds = 0;
  std::size_t candidate_evals = 0;
  std::size_t placed_vms = 0;
  std::size_t budget_reverted = 0;
  double snapshot_mb = 0.0;
};

struct Options {
  Workload workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inject_infeasible = false;
};

Rep run_batch(const Options& o, obs::TraceSession* session) {
  const Workload& w = o.workload;
  Rep rep;
  const double t_setup = now_s();
  const trace::TraceSet traces = make_traces(w, derive_inputs(o.seed));
  const sim::DatacenterSimulator simulator(make_config(w));
  TimedPlacement policy(session);
  TimedVf vf(session);
  rep.setup_s = now_s() - t_setup;

  obs::TraceSession::Id ev_run = 0;
  if (session != nullptr) ev_run = session->event("bench.run");
  sim::RunOptions run{policy, &vf};
  run.trace = session;
  const double t0 = now_s();
  const std::uint64_t t0_ns = session != nullptr ? obs::TraceSession::now_ns() : 0;
  sim::SimResult result;
  bool threw = false;
  try {
    result = simulator.run(traces, run);
  } catch (const std::exception& e) {
    threw = true;
    rep.errors.push_back(std::string("run threw: ") + e.what());
  }
  const double t1 = now_s();
  if (session != nullptr) {
    session->complete(ev_run, t0_ns, obs::TraceSession::now_ns());
  }
  rep.run_s = t1 - t0;

  // Period latencies partition the run at the ALLOCATE calls: period k runs
  // from its place() call to the next (period 0 from run start, the last to
  // run end), so they sum to run_s.
  const std::vector<double>& starts = policy.starts();
  for (std::size_t k = 0; k < starts.size(); ++k) {
    const double begin = k == 0 ? t0 : starts[k];
    const double end = k + 1 < starts.size() ? starts[k + 1] : t1;
    rep.period_ms.push_back(1e3 * (end - begin));
  }

  const std::size_t expected_periods = static_cast<std::size_t>(
      std::floor(w.hours * 60.0 / w.period_min + 1e-9));
  rep.periods = expected_periods;
  rep.attempted = expected_periods;
  const model::FleetSpec& fleet = simulator.fleet();
  for (std::size_t k = 0; k < expected_periods; ++k) {
    if (threw || k >= policy.calls().size()) {
      ++rep.failed;
      continue;
    }
    const PlacementCall& call = policy.calls()[k];
    const bool inject = o.inject_infeasible && k == 1;
    const alloc::Placement checked =
        inject ? stacked(call.demands.size(), fleet.num_servers())
               : call.placement;
    if (!placement_ok(checked, call.demands, fleet,
                      "period " + std::to_string(k), rep.errors)) {
      ++rep.failed;
    }
  }
  if (!threw) rep.sim = SimSummary::of(result);
  rep.relax_rounds = policy.relax_rounds();
  rep.candidate_evals = policy.candidate_evals();
  rep.placed_vms = policy.placed_vms();
  return rep;
}

/// Active mask of every tick, replayed from the churn script the same way the
/// engine applies it (events at period p take effect at the start of p).
std::vector<std::vector<char>> active_masks(const sim::ChurnSpec& churn,
                                            std::size_t n, std::size_t ticks) {
  std::vector<std::vector<char>> masks;
  std::vector<char> mask = churn.initial_active(n);
  for (std::size_t p = 0; p < ticks; ++p) {
    for (const sim::ChurnEvent& e : churn.events_at(p)) {
      mask[e.vm] = e.arrive ? 1 : 0;
    }
    masks.push_back(mask);
  }
  return masks;
}

Rep run_serve(const Options& o, obs::TraceSession* session) {
  const Workload& w = o.workload;
  Rep rep;
  const Inputs in = derive_inputs(o.seed);
  const double t_setup = now_s();
  const trace::TraceSet traces = make_traces(w, in);
  const sim::ChurnSpec churn = make_churn(w, in);
  const sim::SimConfig cfg = make_config(w);
  serve::EngineOptions eopts;
  eopts.total_periods = w.ticks;
  eopts.migration_budget = w.migration_budget;
  TimedPlacement policy(session);
  TimedVf vf(session);
  sim::RunOptions run{policy, &vf};
  run.trace = session;
  serve::AllocationEngine engine(cfg, traces, churn, eopts, run);
  rep.setup_s = now_s() - t_setup;

  obs::TraceSession::Id ev_period = 0, ev_tick = 0, ev_save = 0, ev_encode = 0;
  if (session != nullptr) {
    ev_period = session->event("bench.period", "period");
    ev_tick = session->event("bench.tick", "period");
    ev_save = session->event("bench.save_state", "bytes");
    ev_encode = session->event("bench.encode", "bytes");
  }
  const auto stamp = [session] {
    return session != nullptr ? obs::TraceSession::now_ns() : 0;
  };
  const model::FleetSpec fleet = cfg.resolved_fleet();
  const std::vector<std::vector<char>> masks =
      active_masks(churn, w.vms, w.ticks);
  std::vector<std::uint8_t> last_payload;
  double snapshot_bytes = 0.0;
  rep.periods = w.ticks;
  rep.attempted = w.ticks;
  for (std::size_t p = 0; p < w.ticks; ++p) {
    // The loop-thread work of one service period at --checkpoint-every 1:
    // tick, serialize the state, encode the checkpoint container.
    const double t0 = now_s();
    const std::uint64_t p0 = stamp();
    serve::Snapshot snap;
    std::vector<std::uint8_t> bytes;
    try {
      engine.tick();
      const std::uint64_t p1 = stamp();
      snap.config_fingerprint = engine.config_fingerprint();
      snap.next_period = engine.period();
      snap.payload = engine.save_state();
      const std::uint64_t p2 = stamp();
      bytes = serve::encode_snapshot(snap);
      const std::uint64_t p3 = stamp();
      if (session != nullptr) {
        session->complete(ev_tick, p0, p1, 1, static_cast<double>(p));
        session->complete(ev_save, p1, p2, 1,
                          static_cast<double>(snap.payload.size()));
        session->complete(ev_encode, p2, p3, 1,
                          static_cast<double>(bytes.size()));
        session->complete(ev_period, p0, p3, 1, static_cast<double>(p));
      }
    } catch (const std::exception& e) {
      rep.errors.push_back("tick " + std::to_string(p) + " threw: " + e.what());
      rep.failed += w.ticks - p;
      break;
    }
    rep.period_ms.push_back(1e3 * (now_s() - t0));
    snapshot_bytes += static_cast<double>(bytes.size());

    // Checks, untimed: the snapshot round-trips byte-exactly, and the
    // engine's universe placement is the policy's feasible decision over
    // exactly the active VMs.
    bool ok = true;
    try {
      const serve::Snapshot back = serve::decode_snapshot(bytes);
      if (back.payload != snap.payload ||
          back.config_fingerprint != snap.config_fingerprint ||
          back.next_period != snap.next_period) {
        ok = false;
        rep.errors.push_back("tick " + std::to_string(p) +
                             ": snapshot round trip not byte-exact");
      }
    } catch (const std::exception& e) {
      ok = false;
      rep.errors.push_back("tick " + std::to_string(p) +
                           ": decode_snapshot threw: " + e.what());
    }
    const std::optional<alloc::Placement>& universe = engine.last_placement();
    const std::vector<char>& mask = masks[p];
    std::vector<std::size_t> active;
    for (std::size_t v = 0; v < w.vms; ++v) {
      if (mask[v]) active.push_back(v);
    }
    // One place() call per tick; its demands are the active VMs in order.
    const bool placed = policy.calls().size() == p + 1;
    const std::vector<model::VmDemand>& demands =
        placed ? policy.calls().back().demands : std::vector<model::VmDemand>{};
    if (!universe.has_value() || !placed || active.size() != demands.size()) {
      ok = false;
      rep.errors.push_back("tick " + std::to_string(p) +
                           ": placement missing or active set mismatch");
    } else {
      alloc::Placement compact(active.size(), fleet.num_servers());
      bool mapped = true;
      for (std::size_t v = 0; v < w.vms && mapped; ++v) {
        const std::optional<std::size_t> s = universe->server_of(v);
        if (mask[v] != static_cast<char>(s.has_value())) mapped = false;
      }
      for (std::size_t k = 0; k < active.size() && mapped; ++k) {
        compact.assign(k, *universe->server_of(active[k]));
      }
      if (!mapped) {
        ok = false;
        rep.errors.push_back("tick " + std::to_string(p) +
                             ": placement does not cover the active set");
      } else {
        const bool inject = o.inject_infeasible && p == 1;
        const alloc::Placement checked =
            inject ? stacked(active.size(), fleet.num_servers()) : compact;
        ok = placement_ok(checked, demands, fleet,
                          "tick " + std::to_string(p), rep.errors) && ok;
      }
    }
    if (!ok) ++rep.failed;
    last_payload = std::move(snap.payload);
  }
  rep.run_s = 0.0;
  for (double ms : rep.period_ms) rep.run_s += ms / 1e3;

  // A fresh engine of the same configuration restored from the final
  // snapshot must serialize to the same bytes.
  if (rep.period_ms.size() == w.ticks) {
    try {
      TimedPlacement fresh_policy(nullptr);
      TimedVf fresh_vf(nullptr);
      serve::AllocationEngine fresh(cfg, traces, churn, eopts,
                                    sim::RunOptions{fresh_policy, &fresh_vf});
      fresh.restore_state(last_payload);
      if (fresh.save_state() != last_payload) {
        rep.errors.push_back("restored engine state differs from snapshot");
        ++rep.failed;
      }
    } catch (const std::exception& e) {
      rep.errors.push_back(std::string("restore threw: ") + e.what());
      ++rep.failed;
    }
    rep.sim = SimSummary::of(engine.result());
  }
  rep.relax_rounds = policy.relax_rounds();
  rep.candidate_evals = policy.candidate_evals();
  rep.placed_vms = policy.placed_vms();
  rep.budget_reverted = engine.budget_reverted_moves();
  rep.snapshot_mb =
      rep.period_ms.empty()
          ? 0.0
          : snapshot_bytes / static_cast<double>(rep.period_ms.size()) / 1e6;
  return rep;
}

Rep run_rep(const Options& o, obs::TraceSession* session) {
  return o.workload.serve ? run_serve(o, session) : run_batch(o, session);
}

// ---------------------------------------------------------------------------
// Trace analysis.

struct Span {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  double arg0 = 0.0;
  double arg1 = 0.0;
};
using Spans = std::vector<Span>;

double total_ms(const Spans& spans) {
  double ns = 0.0;
  for (const Span& s : spans) ns += static_cast<double>(s.end - s.begin);
  return ns / 1e6;
}

/// The session's spans by event name, each list in start order.
std::map<std::string, Spans> collect(const obs::TraceSession& session) {
  std::map<std::string, Spans> out;
  for (const obs::TraceSession::ThreadLog& log : session.snapshot()) {
    for (const obs::TraceEvent& e : log.events) {
      if (e.kind != obs::TraceEvent::Kind::kSpan) continue;
      out[session.event_name(e.name_id)].push_back(
          {e.ts_ns, e.ts_ns + e.dur_ns, e.arg0, e.arg1});
    }
  }
  for (auto& [name, spans] : out) {
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.begin < b.begin; });
  }
  return out;
}

/// Length of the union of the spans, in ms.
double union_ms(Spans v) {
  std::sort(v.begin(), v.end(),
            [](const Span& a, const Span& b) { return a.begin < b.begin; });
  double ns = 0.0;
  std::uint64_t cur_b = 0, cur_e = 0;
  bool open = false;
  for (const Span& i : v) {
    if (!open || i.begin > cur_e) {
      if (open) ns += static_cast<double>(cur_e - cur_b);
      cur_b = i.begin;
      cur_e = i.end;
      open = true;
    } else {
      cur_e = std::max(cur_e, i.end);
    }
  }
  if (open) ns += static_cast<double>(cur_e - cur_b);
  return ns / 1e6;
}

/// Total of `child` spans lying inside some `parent` span, in ms.
double nested_ms(const Spans& parent, const Spans& child) {
  double ns = 0.0;
  for (const Span& c : child) {
    for (const Span& p : parent) {
      if (c.begin >= p.begin && c.end <= p.end) {
        ns += static_cast<double>(c.end - c.begin);
        break;
      }
    }
  }
  return ns / 1e6;
}

/// Sweep rounds that allocated nothing and did not finish: relaxation plus
/// capacity-growth rounds. A round made progress when the `unallocated`
/// argument of its alloc.sweep span dropped below the previous round's; the
/// first round of a place() call starts from all its VMs (the `vms` argument
/// of the enclosing bench.place span).
std::size_t stalled_rounds(const Spans& place, const Spans& sweep) {
  std::size_t stalled = 0;
  std::size_t s = 0;
  for (const Span& call : place) {
    double before = call.arg0;
    for (; s < sweep.size() && sweep[s].begin < call.end; ++s) {
      if (sweep[s].begin < call.begin) continue;
      const double after = sweep[s].arg1;
      if (after > 0.0 && after >= before) ++stalled;
      before = after;
    }
  }
  return stalled;
}

using Layers = std::map<std::string, double>;

Layers layer_split(const std::map<std::string, Spans>& spans, const Rep& rep) {
  static const Spans kEmpty;
  const auto get = [&](const char* name) -> const Spans& {
    const auto it = spans.find(name);
    return it == spans.end() ? kEmpty : it->second;
  };
  const double periods = static_cast<double>(std::max<std::size_t>(rep.periods, 1));
  const Spans& update = get("sim.update");
  const Spans& place = get("sim.place");
  const Spans& dvfs = get("sim.dvfs_decide");
  const Spans& replay = get("sim.replay");
  const Spans& flush = get("sim.ingest_flush");
  const Spans& churn = get("serve.churn");
  const Spans& save = get("bench.save_state");
  const Spans& encode = get("bench.encode");
  const Spans& bench_place = get("bench.place");
  const Spans& sweep = get("alloc.sweep");

  const double wall = total_ms(get("bench.run")) + total_ms(get("bench.period"));
  Spans attributed;
  for (const Spans* s : {&update, &place, &dvfs, &replay, &flush, &churn,
                         &save, &encode}) {
    attributed.insert(attributed.end(), s->begin(), s->end());
  }
  const double unattributed = wall - union_ms(std::move(attributed));
  const double relax = static_cast<double>(rep.relax_rounds);
  const double stalled = static_cast<double>(stalled_rounds(bench_place, sweep));

  Layers l;
  l["corr.ingest_flush_ms"] = total_ms(flush) / periods;
  l["alloc.place_ms"] = total_ms(bench_place) / periods;
  l["alloc.sweep_rounds"] = static_cast<double>(sweep.size());
  l["alloc.relax_rounds"] = relax;
  l["alloc.growth_rounds"] = std::max(0.0, stalled - relax);
  l["alloc.candidate_evals"] = static_cast<double>(rep.candidate_evals);
  l["alloc.evals_per_vm"] =
      rep.placed_vms > 0 ? static_cast<double>(rep.candidate_evals) /
                               static_cast<double>(rep.placed_vms)
                         : 0.0;
  l["dvfs.decide_ms"] = total_ms(get("bench.vf_decide")) / periods;
  l["sim.update_ms"] = total_ms(update) / periods;
  l["sim.replay_self_ms"] =
      (total_ms(replay) - nested_ms(replay, flush)) / periods;
  l["sim.unattributed_ms"] = unattributed / periods;
  l["sim.unattributed_pct"] = wall > 0.0 ? 100.0 * unattributed / wall : 0.0;
  l["serve.tick_ms"] = total_ms(get("bench.tick")) / periods;
  l["serve.save_state_ms"] = total_ms(save) / periods;
  l["serve.encode_ms"] = total_ms(encode) / periods;
  l["serve.churn_ms"] = total_ms(churn) / periods;
  l["serve.snapshot_mb"] = rep.snapshot_mb;
  l["serve.budget_reverted"] = static_cast<double>(rep.budget_reverted);
  return l;
}

// ---------------------------------------------------------------------------
// corr probes: the ingest kernels timed on the workload's own per-period
// sample blocks, outside the loop, so their cost can be set beside the
// loop's own sim.ingest_flush span.

/// Emits one bench.probe.* span per kernel call into `session`. Dense blocks
/// are probed for every period, except on sparse-place, where the full
/// 4 000-VM triangle is off the workload's path and only the first block is
/// probed. Returns the number of periods (index builds).
std::size_t run_probes(const Options& o, obs::TraceSession& session) {
  const Workload& w = o.workload;
  const Inputs in = derive_inputs(o.seed);
  const trace::TraceSet traces = make_traces(w, in);
  const sim::SimConfig cfg = make_config(w);
  const std::size_t n = traces.size();
  const std::size_t spp = static_cast<std::size_t>(
      std::llround(cfg.period_seconds / traces.dt()));
  const std::size_t trace_periods = traces.samples_per_trace() / spp;
  const std::size_t periods = w.serve ? w.ticks : trace_periods;
  const std::size_t dense_blocks = w.sparse ? 1 : periods;
  std::vector<std::vector<char>> masks;
  if (w.serve) masks = active_masks(make_churn(w, in), n, w.ticks);

  const obs::TraceSession::Id ev_cost =
      session.event("bench.probe.cost_ingest", "samples", "vms");
  const obs::TraceSession::Id ev_moment =
      session.event("bench.probe.moment_ingest", "samples", "vms");
  const obs::TraceSession::Id ev_index =
      session.event("bench.probe.index_build", "samples", "vms");
  const double vms = static_cast<double>(n);
  const double samples = static_cast<double>(spp);
  util::ThreadPool pool(cfg.sparse_build_threads);
  corr::CostMatrix cost(n, cfg.reference);
  corr::MomentMatrix moments(n);
  std::vector<double> block(n * spp, 0.0);
  for (std::size_t p = 0; p < periods; ++p) {
    // The block the loop ingests for this period: VM-major, and on
    // serve-churn the trace wraps and inactive VMs contribute zeros.
    const std::size_t first = (p % trace_periods) * spp;
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const double> s = traces[i].series.samples();
      double* dst = block.data() + i * spp;
      if (w.serve && !masks[p][i]) {
        std::fill(dst, dst + spp, 0.0);
      } else {
        std::copy(s.begin() + static_cast<std::ptrdiff_t>(first),
                  s.begin() + static_cast<std::ptrdiff_t>(first + spp), dst);
      }
    }
    if (p < dense_blocks) {
      cost.reset();
      moments.reset();
      {
        obs::TraceSpan span(&session, ev_cost, samples, vms);
        cost.add_block(block, spp, spp);
      }
      {
        obs::TraceSpan span(&session, ev_moment, samples, vms);
        moments.add_block(block, spp, spp);
      }
    }
    std::size_t indexed = 0;
    {
      obs::TraceSpan span(&session, ev_index, samples, vms);
      indexed = corr::SparseCostIndex::build(block, n, spp, spp, cfg.reference,
                                             cfg.sparse_index, &pool)
                    .size();
    }
    if (indexed != n) throw std::logic_error("probe index has wrong size");
  }
  return periods;
}

// ---------------------------------------------------------------------------
// Statistics and output.

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "dense-ingest|sparse-place|serve-churn --seed N --seconds S "
               "--trace 0|1 [--toy] [--inject-infeasible]\n",
               msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  std::string workload;
  bool toy = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--toy") {
        toy = true;
      } else if (a == "--inject-infeasible") {
        o.inject_infeasible = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (workload.empty()) usage("--workload is required");
  try {
    o.workload = make_workload(workload, toy);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  return o;
}

/// Repetitions run until `seconds` have been spent, but at least this many,
/// so set-up and run time are medians of several samples.
constexpr std::size_t kMinReps = 3;

int run_main(const Options& o) {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::optional<SimSummary> reference;
  const auto account = [&](const Rep& rep, const char* label) {
    attempted += rep.attempted;
    failed += rep.failed;
    for (const std::string& e : rep.errors) {
      std::fprintf(stderr, "perfbench: %s: %s\n", label, e.c_str());
    }
    if (rep.failed > 0) correct = false;
    if (!reference.has_value()) {
      reference = rep.sim;
    } else if (!(rep.sim == *reference)) {
      // Every repetition sees the same inputs; tracing must not change
      // results either.
      std::fprintf(stderr,
                   "perfbench: %s: simulated results differ between "
                   "repetitions of the same inputs\n",
                   label);
      correct = false;
    }
  };

  std::vector<Metric> metrics;
  const double start = now_s();
  if (!o.trace) {
    std::vector<Rep> reps;
    while (reps.size() < kMinReps || now_s() - start < o.seconds) {
      reps.push_back(run_rep(o, nullptr));
      account(reps.back(), "untraced run");
      std::fprintf(stderr, "perfbench: repetition %zu: setup %.3f s, run %.3f s\n",
                   reps.size(), reps.back().setup_s, reps.back().run_s);
    }
    std::vector<double> setup, run, period;
    for (const Rep& r : reps) {
      setup.push_back(r.setup_s);
      run.push_back(r.run_s);
      period.push_back(1e3 * r.run_s /
                       static_cast<double>(std::max<std::size_t>(r.periods, 1)));
    }
    // One latency sample per period: its median over the repetitions, so the
    // percentiles rank periods rather than repetition noise.
    std::vector<double> samples;
    for (std::size_t k = 0; k < reps.front().period_ms.size(); ++k) {
      std::vector<double> same_period;
      for (const Rep& r : reps) {
        if (k < r.period_ms.size()) same_period.push_back(r.period_ms[k]);
      }
      samples.push_back(median(same_period));
    }
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %zu repetitions of %zu periods\n",
                 o.workload.name.c_str(), static_cast<unsigned long long>(o.seed),
                 reps.size(), samples.size());
    const SimSummary sim = reference.value_or(SimSummary{});
    metrics = {
        {"setup_s", median(setup), "s"},
        {"run_s", median(run), "s"},
        {"period_ms", median(period), "ms"},
        {"tick_p50_ms", quantile(samples, 0.5), "ms"},
        {"tick_p90_ms", quantile(samples, 0.9), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"energy_kwh", sim.energy_kwh, "kWh"},
        {"mean_active_servers", sim.mean_active_servers, "count"},
        {"migrations", sim.migrations, "count"},
    };
  } else {
    std::vector<double> untraced_run, traced_run;
    std::vector<Layers> splits;
    std::uint64_t dropped = 0;
    while (traced_run.empty() || now_s() - start < o.seconds) {
      const Rep plain = run_rep(o, nullptr);
      account(plain, "untraced run");
      untraced_run.push_back(plain.run_s);
      obs::TraceSession session(1u << 20);
      const Rep traced = run_rep(o, &session);
      account(traced, "traced run");
      traced_run.push_back(traced.run_s);
      const obs::TraceSession::Stats stats = session.stats();
      if (stats.dropped > 0) {
        // Counts read from a trace with dropped events are wrong.
        std::fprintf(stderr, "perfbench: traced run dropped %llu events\n",
                     static_cast<unsigned long long>(stats.dropped));
        correct = false;
        ++failed;
      }
      dropped += stats.dropped;
      splits.push_back(layer_split(collect(session), traced));
    }
    obs::TraceSession probe_session(1u << 16);
    const double periods =
        static_cast<double>(run_probes(o, probe_session));
    const std::map<std::string, Spans> probe = collect(probe_session);
    const auto mean_ms = [&](const char* name) {
      const Spans& spans = probe.at(name);
      return total_ms(spans) / static_cast<double>(spans.size());
    };
    const double cost_ms = mean_ms("bench.probe.cost_ingest");
    const double moment_ms = mean_ms("bench.probe.moment_ingest");
    const double index_ms = mean_ms("bench.probe.index_build");

    Layers l;
    for (const auto& [name, unused] : splits.front()) {
      std::vector<double> v;
      for (const Layers& s : splits) v.push_back(s.at(name));
      l[name] = median(v);
    }
    // The flush runs the dense kernels once per period in dense mode, and in
    // sparse mode the index build at every period wrap-up but the last; the
    // gap is what the probes of that mode leave unexplained, per period.
    const double explained =
        o.workload.sparse ? index_ms * (periods - 1.0) / periods
                          : cost_ms + moment_ms;
    const double overhead =
        100.0 * (median(traced_run) / median(untraced_run) - 1.0);
    const SimSummary sim = reference.value_or(SimSummary{});
    const double ratio =
        attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                      : 1.0;
    metrics = {
        {"corr.cost_ingest_ms", cost_ms, "ms"},
        {"corr.moment_ingest_ms", moment_ms, "ms"},
        {"corr.index_build_ms", index_ms, "ms"},
        {"corr.ingest_flush_ms", l["corr.ingest_flush_ms"], "ms"},
        {"corr.flush_gap_ms", l["corr.ingest_flush_ms"] - explained, "ms"},
        {"alloc.place_ms", l["alloc.place_ms"], "ms"},
        {"alloc.sweep_rounds", l["alloc.sweep_rounds"], "count"},
        {"alloc.relax_rounds", l["alloc.relax_rounds"], "count"},
        {"alloc.growth_rounds", l["alloc.growth_rounds"], "count"},
        {"alloc.candidate_evals", l["alloc.candidate_evals"], "count"},
        {"alloc.evals_per_vm", l["alloc.evals_per_vm"], "ratio"},
        {"dvfs.decide_ms", l["dvfs.decide_ms"], "ms"},
        {"sim.update_ms", l["sim.update_ms"], "ms"},
        {"sim.replay_self_ms", l["sim.replay_self_ms"], "ms"},
        {"sim.unattributed_ms", l["sim.unattributed_ms"], "ms"},
        {"sim.unattributed_pct", l["sim.unattributed_pct"], "%"},
        {"serve.tick_ms", l["serve.tick_ms"], "ms"},
        {"serve.save_state_ms", l["serve.save_state_ms"], "ms"},
        {"serve.encode_ms", l["serve.encode_ms"], "ms"},
        {"serve.snapshot_mb", l["serve.snapshot_mb"], "MB"},
        {"serve.churn_ms", l["serve.churn_ms"], "ms"},
        {"serve.budget_reverted", l["serve.budget_reverted"], "count"},
        {"max_violation_pct", sim.max_violation_pct, "%"},
        {"violation_pct", sim.violation_pct, "%"},
        {"obs.trace_overhead_pct", overhead, "%"},
        {"obs.dropped_events", static_cast<double>(dropped), "count"},
        {"failed_op_ratio", ratio, "ratio"},
    };
  }
  if (failed > 0) correct = false;
  print_result(correct, std::max<std::size_t>(attempted, 1), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    return run_main(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
