#include "lbnn_adapter.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "baselines/baseline_models.hpp"
#include "baselines/lpu_throughput.hpp"
#include "common/bitvec.hpp"
#include "common/check.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "core/emit.hpp"
#include "core/mfg.hpp"
#include "core/schedule.hpp"
#include "core/serialize.hpp"
#include "lpu/simulator.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "nn/model_zoo.hpp"
#include "opt/passes.hpp"
#include "opt/path_balance.hpp"
#include "opt/tech_map.hpp"
#include "router/router.hpp"
#include "runtime/engine.hpp"
#include "serve/alias.hpp"
#include "serve/cascade.hpp"

namespace perfbench {

struct CircuitImpl {
  /// The netlist is `workload.ffcl`; `desc` is empty for non-zoo circuits.
  lbnn::nn::LayerWorkload workload;
  const lbnn::Netlist& netlist() const { return workload.ffcl; }
};

struct CompiledImpl {
  lbnn::Program program;
  ScheduleCounts counts;
};

struct BatchImpl {
  std::vector<lbnn::BitVec> ports;
};

struct SimImpl {
  std::shared_ptr<const CompiledImpl> compiled;  // the simulator borrows it
  lbnn::LpuSimulator sim;
  explicit SimImpl(std::shared_ptr<const CompiledImpl> c)
      : compiled(std::move(c)), sim(compiled->program) {}
};

struct AdapterAccess {
  static const CircuitImpl& of(const Circuit& c) { return *c.impl_; }
  static const CompiledImpl& of(const Compiled& c) { return *c.impl_; }
  static const std::shared_ptr<const CompiledImpl>& ptr(const Compiled& c) {
    return c.impl_;
  }
  static Circuit make(CircuitImpl impl) {
    Circuit c;
    c.impl_ = std::make_shared<const CircuitImpl>(std::move(impl));
    return c;
  }
  static Compiled make(CompiledImpl impl) {
    Compiled c;
    c.impl_ = std::make_shared<const CompiledImpl>(std::move(impl));
    return c;
  }
  static BatchImpl& of(Batch& b) { return *b.impl_; }
  static const BatchImpl& of(const Batch& b) { return *b.impl_; }
};

namespace {

using lbnn::runtime::SubmitStatus;

lbnn::LpuConfig paper_lpu(std::uint32_t lpvs) {
  lbnn::LpuConfig cfg;
  cfg.m = 64;
  cfg.n = lpvs;
  cfg.tsw = 5;
  cfg.clock_mhz = 333.0;
  return cfg;
}

/// Mirrors bench::tiny_synth(), the preset of the paper-table benches.
lbnn::nn::SynthOptions tiny_synth() {
  lbnn::nn::SynthOptions s;
  s.style = lbnn::nn::NeuronStyle::kNullaNetTiny;
  s.fanin_cap = 5;
  s.max_neurons = 24;
  s.max_inputs = 96;
  return s;
}

lbnn::CompileOptions compile_options(std::uint32_t lpvs) {
  lbnn::CompileOptions o;
  o.lpu = paper_lpu(lpvs);
  return o;
}

Admit admit_of(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::kAccepted: return Admit::kAccepted;
    case SubmitStatus::kQueueFull: return Admit::kQueueFull;
    case SubmitStatus::kUnloaded: return Admit::kUnloaded;
    case SubmitStatus::kShuttingDown: return Admit::kShuttingDown;
    case SubmitStatus::kDeadlineUnmeetable: return Admit::kDeadlineUnmeetable;
  }
  return Admit::kShuttingDown;
}

std::string metric_key(const std::string& name) {
  std::string k;
  for (const char ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      k += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    } else if (!k.empty() && k.back() != '_') {
      k += '_';
    }
  }
  while (!k.empty() && k.back() == '_') k.pop_back();
  return k;
}

ScheduleCounts counts_of(const lbnn::Netlist& in, const lbnn::CompileResult& r) {
  ScheduleCounts c;
  c.gates_in = in.num_gates();
  c.gates_balanced = r.report.preprocessed.num_gates;
  c.mfgs_before_merge = r.report.mfgs_before_merge;
  c.mfgs_after_merge = r.report.mfgs_after_merge;
  c.retries = r.report.retries;
  c.wavefronts = r.report.wavefronts;
  c.bubbles = r.report.bubbles;
  c.instances = r.report.instances;
  c.duplicates = r.report.duplicates;
  return c;
}

std::vector<lbnn::baselines::LayerLpuResult> layer_results(
    const ZooModel& m, const std::vector<Compiled>& layers) {
  LBNN_CHECK(m.layers.size() == layers.size(), "one program per layer");
  std::vector<lbnn::baselines::LayerLpuResult> out(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    out[i].workload = AdapterAccess::of(m.layers[i]).workload;
    out[i].wavefronts = AdapterAccess::of(layers[i]).program.num_wavefronts;
  }
  return out;
}

}  // namespace

const char* admit_name(Admit a) {
  switch (a) {
    case Admit::kAccepted: return "accepted";
    case Admit::kQueueFull: return "queue_full";
    case Admit::kUnloaded: return "unloaded";
    case Admit::kShuttingDown: return "shutting_down";
    case Admit::kDeadlineUnmeetable: return "deadline_unmeetable";
  }
  return "?";
}

Outcome take(Answer& answer, Bits* out, Admit* refused, std::string* error) {
  try {
    *out = answer.get();
    return Outcome::kValue;
  } catch (const lbnn::DeadlineExceeded&) {
    return Outcome::kDeadlineExceeded;
  } catch (const std::exception& e) {
    // A Cascade reports a stage-2 admission refusal on the client's future,
    // as an Error that names the SubmitStatus.
    static const std::string kStage2 = "cascade: stage-2 admission refused: ";
    const std::string what = e.what();
    if (what.rfind(kStage2, 0) == 0) {
      for (const SubmitStatus st : {SubmitStatus::kQueueFull, SubmitStatus::kUnloaded,
                                    SubmitStatus::kShuttingDown,
                                    SubmitStatus::kDeadlineUnmeetable}) {
        if (what.compare(kStage2.size(), std::string::npos, lbnn::runtime::to_string(st)) == 0) {
          *refused = admit_of(st);
          return Outcome::kRefused;
        }
      }
    }
    *error = what;
    return Outcome::kOtherError;
  } catch (...) {
    *error = "an exception not derived from std::exception";
    return Outcome::kOtherError;
  }
}

HostIsa host_isa() {
  HostIsa h;
  h.avx2 = lbnn::LpuSimulator::cpu_has_avx2();
  h.kernel = lbnn::to_string(lbnn::LpuSimulator::resolve_kernel(true));
  return h;
}

// ---------------------------------------------------------------- circuits

std::size_t Circuit::num_inputs() const { return impl_->netlist().num_inputs(); }
std::size_t Circuit::num_gates() const { return impl_->netlist().num_gates(); }

std::vector<ZooModel> synthesize_zoo(std::uint64_t seed, std::size_t max_layers) {
  std::vector<ZooModel> out;
  const auto models = lbnn::nn::all_models();
  for (std::size_t mi = 0; mi < models.size(); ++mi) {
    const auto& desc = models[mi];
    ZooModel m;
    m.name = desc.name;
    m.key = metric_key(desc.name);
    m.published_fps = lbnn::baselines::lpu_published(desc.name);
    // One stream per model, as compile_model_layers() draws it.
    lbnn::Rng rng(seed * 0x9E3779B97F4A7C15ull + mi);
    for (std::size_t li = 0; li < desc.layers.size() && li < max_layers; ++li) {
      CircuitImpl impl;
      impl.workload = lbnn::nn::synthesize_layer_ffcl(desc.layers[li], tiny_synth(), rng);
      m.layers.push_back(AdapterAccess::make(std::move(impl)));
    }
    out.push_back(std::move(m));
  }
  return out;
}

Circuit reconvergent_grid(std::uint64_t seed) {
  lbnn::Rng rng(seed);
  CircuitImpl impl;
  impl.workload.ffcl = lbnn::reconvergent_grid(96, 24, rng);
  return AdapterAccess::make(std::move(impl));
}

CascadePair cascade_pair(std::uint64_t seed) {
  const lbnn::nn::ModelDesc desc = lbnn::nn::jsc_l();
  lbnn::Rng rng_tiny(seed);
  lbnn::Rng rng_big(seed);  // same stream: same input subsets and signs
  CircuitImpl tiny;
  tiny.workload.ffcl = lbnn::nn::synthesize_layer_ffcl(desc.layers[0], tiny_synth(), rng_tiny).ffcl;
  CircuitImpl big;
  big.workload.ffcl =
      lbnn::nn::synthesize_layer_ffcl(desc.layers[0], lbnn::nn::SynthOptions{}, rng_big).ffcl;
  return {AdapterAccess::make(std::move(tiny)), AdapterAccess::make(std::move(big))};
}

std::vector<Bits> reference(const Circuit& c, const std::vector<Bits>& inputs) {
  const lbnn::Netlist& nl = AdapterAccess::of(c).netlist();
  std::vector<Bits> out(inputs.size(), Bits(nl.num_outputs()));
  for (std::size_t base = 0; base < inputs.size(); base += kLanes) {
    const std::size_t lanes = std::min(kLanes, inputs.size() - base);
    std::vector<lbnn::BitVec> in(nl.num_inputs(), lbnn::BitVec(lanes));
    for (std::size_t l = 0; l < lanes; ++l) {
      LBNN_CHECK(inputs[base + l].size() == nl.num_inputs(), "input arity");
      for (std::size_t p = 0; p < nl.num_inputs(); ++p) in[p].set(l, inputs[base + l][p]);
    }
    const std::vector<lbnn::BitVec> res = lbnn::simulate(nl, in);
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t p = 0; p < res.size(); ++p) out[base + l][p] = res[p].get(l);
    }
  }
  return out;
}

// ---------------------------------------------------------------- compile

const ScheduleCounts& Compiled::counts() const { return impl_->counts; }
double Compiled::samples_per_second() const {
  return impl_->program.samples_per_second();
}
std::string Compiled::text() const { return lbnn::program_to_string(impl_->program); }

Compiled compile(const Circuit& c, std::uint32_t lpvs) {
  const lbnn::Netlist& nl = AdapterAccess::of(c).netlist();
  lbnn::CompileResult r = lbnn::compile(nl, compile_options(lpvs));
  CompiledImpl impl;
  impl.counts = counts_of(nl, r);
  impl.program = std::move(r.program);
  return AdapterAccess::make(std::move(impl));
}

const char* pass_name(Pass p) {
  switch (p) {
    case Pass::kOptimize: return "optimize";
    case Pass::kTechMap: return "tech_map";
    case Pass::kBalance: return "balance";
    case Pass::kPartition: return "partition";
    case Pass::kMerge: return "merge";
    case Pass::kSchedule: return "schedule";
    case Pass::kEmit: return "emit";
  }
  return "?";
}

Compiled compile_by_passes(const Circuit& c, std::uint32_t lpvs,
                           const PassObserver& observe) {
  using lbnn::CompileError;
  const lbnn::Netlist& input = AdapterAccess::of(c).netlist();
  const lbnn::CompileOptions opt = compile_options(lpvs);
  const auto timed = [&](Pass p, auto&& body) {
    const auto t0 = Clock::now();
    struct Report {
      const PassObserver& observe;
      Pass p;
      Clock::time_point t0;
      ~Report() { observe(p, t0, Clock::now()); }
    } report{observe, p, t0};
    return body();
  };

  CompiledImpl impl;
  ScheduleCounts& counts = impl.counts;
  counts.gates_in = input.num_gates();
  lbnn::Netlist nl = timed(Pass::kOptimize, [&] { return lbnn::optimize(input); });
  nl = timed(Pass::kTechMap, [&] {
    return lbnn::eliminate_dead(lbnn::tech_map(nl, opt.library));
  });
  const std::uint32_t n = opt.lpu.n;
  nl = timed(Pass::kBalance, [&] {
    const auto depth = static_cast<std::uint32_t>(nl.depth());
    return lbnn::balance_paths(nl, static_cast<lbnn::Level>(((depth + n) / n) * n - 1));
  });
  counts.gates_balanced = nl.num_gates();

  // compile()'s attempt ladder: shared, then tree sharing, then both again at
  // halved partition width.
  std::uint32_t m_eff = opt.lpu.m;
  for (std::uint32_t round = 0;; ++round) {
    lbnn::PartitionOptions popt;
    popt.m = m_eff;
    popt.band = n;
    lbnn::MfgForest forest =
        timed(Pass::kPartition, [&] { return lbnn::partition(nl, popt); });
    counts.mfgs_before_merge = forest.num_alive();
    timed(Pass::kMerge, [&] { return lbnn::merge_mfgs(forest, m_eff); });
    counts.mfgs_after_merge = forest.num_alive();
    for (const auto mode : {lbnn::SharingMode::kShared, lbnn::SharingMode::kTree}) {
      try {
        lbnn::Schedule sched = timed(Pass::kSchedule, [&] {
          return lbnn::build_schedule(forest, opt.lpu, mode);
        });
        impl.program =
            timed(Pass::kEmit, [&] { return lbnn::emit_program(forest, sched, opt.lpu); });
        counts.wavefronts = sched.stats.wavefronts;
        counts.bubbles = sched.stats.bubbles;
        counts.instances = sched.stats.instances;
        counts.duplicates = sched.stats.duplicates;
        return AdapterAccess::make(std::move(impl));
      } catch (const CompileError&) {
        ++counts.retries;
        if (round >= opt.width_headroom_retries && mode == lbnn::SharingMode::kTree) {
          throw;
        }
      }
    }
    if (m_eff <= 2) throw CompileError("cannot schedule at minimal partition width");
    m_eff /= 2;
  }
}

double model_fps(const ZooModel& m, const std::vector<Compiled>& layers) {
  return lbnn::baselines::lpu_frames_per_second(layer_results(m, layers),
                                                paper_lpu(kPaperLpvs));
}

double model_cycles_per_frame(const ZooModel& m, const std::vector<Compiled>& layers) {
  return lbnn::baselines::lpu_cycles_per_frame(layer_results(m, layers),
                                               paper_lpu(kPaperLpvs));
}

// ---------------------------------------------------------------- simulate

Batch::Batch() : impl_(std::make_unique<BatchImpl>()) {}
Batch::~Batch() = default;
Batch::Batch(Batch&&) noexcept = default;
Batch& Batch::operator=(Batch&&) noexcept = default;
bool Batch::operator==(const Batch& o) const { return impl_->ports == o.impl_->ports; }

Batch random_batch(const Circuit& c, std::size_t lanes, std::uint64_t seed) {
  lbnn::Rng rng(seed);
  Batch b;
  AdapterAccess::of(b).ports = lbnn::random_inputs(AdapterAccess::of(c).netlist(), lanes, rng);
  return b;
}

Batch simulate_reference(const Circuit& c, const Batch& inputs) {
  Batch b;
  AdapterAccess::of(b).ports =
      lbnn::simulate(AdapterAccess::of(c).netlist(), AdapterAccess::of(inputs).ports);
  return b;
}

Simulator::Simulator(const Compiled& program)
    : impl_(std::make_unique<SimImpl>(AdapterAccess::ptr(program))) {}
Simulator::~Simulator() = default;

Batch Simulator::run(const Batch& inputs) {
  Batch b;
  AdapterAccess::of(b).ports = impl_->sim.run(AdapterAccess::of(inputs).ports);
  return b;
}

double Simulator::lpe_utilization() const { return impl_->sim.counters().lpe_utilization; }
std::uint64_t Simulator::wavefronts() const { return impl_->sim.counters().wavefronts; }

// ---------------------------------------------------------------- serving

namespace {

EngineCounts engine_counts(const lbnn::runtime::ServeReport& r) {
  EngineCounts c;
  c.requests = r.requests;
  c.batches = r.batches;
  c.samples = r.samples;
  c.lanes_offered = r.lanes_offered;
  c.steals = r.steals;
  c.hedges_launched = r.hedges_launched;
  c.expired = r.expired;
  c.shed = r.shed;
  return c;
}

lbnn::runtime::EngineOptions engine_options(unsigned workers) {
  lbnn::runtime::EngineOptions o;
  o.num_workers = workers;
  o.compile = compile_options(kServingLpvs);
  return o;
}

}  // namespace

struct Server::Impl {
  lbnn::runtime::Engine engine;
  std::vector<lbnn::runtime::ModelHandle> models;
  explicit Impl(unsigned workers) : engine(engine_options(workers)) {}
};

Server::Server(unsigned workers) : impl_(std::make_unique<Impl>(workers)) {}
Server::~Server() = default;

std::size_t Server::load(const std::string& name, const Circuit& c) {
  impl_->models.push_back(impl_->engine.load(name, AdapterAccess::of(c).netlist()));
  return impl_->models.size() - 1;
}

Admit Server::try_submit(std::size_t model, Bits inputs, Answer* out,
                         Clock::time_point deadline) {
  return admit_of(
      impl_->engine.try_submit(impl_->models[model], std::move(inputs), out, deadline));
}

std::size_t Server::in_flight() const { return impl_->engine.in_flight(); }
EngineCounts Server::counts() const { return engine_counts(impl_->engine.report()); }

struct Fleet::Impl {
  lbnn::router::Router router;
  lbnn::serve::RoutedAliasTable aliases;
  std::string alias;  ///< the one published alias, if any
  std::vector<lbnn::router::RoutedHandle> models;
  // Declared last: a Cascade drains into its engine on destruction.
  std::unique_ptr<lbnn::serve::Cascade> cascade;

  static lbnn::router::RouterOptions options(std::size_t shards) {
    lbnn::router::RouterOptions o;
    o.num_shards = shards;
    o.engine = engine_options(1);
    o.initial_replicas = shards;
    o.rebalance_interval = std::chrono::microseconds(0);
    return o;
  }
  explicit Impl(std::size_t shards) : router(options(shards)), aliases(router) {}
};

Fleet::Fleet(std::size_t shards) : impl_(std::make_unique<Impl>(shards)) {}
Fleet::~Fleet() = default;

std::size_t Fleet::load(const std::string& name, const Circuit& c) {
  impl_->models.push_back(impl_->router.load(name, AdapterAccess::of(c).netlist()));
  return impl_->models.size() - 1;
}

Admit Fleet::try_submit(std::size_t model, Bits inputs, Answer* out,
                        Clock::time_point deadline) {
  return admit_of(
      impl_->router.try_submit(impl_->models[model], std::move(inputs), out, deadline));
}

void Fleet::publish_alias(const std::string& alias, std::size_t primary,
                          std::size_t canary, std::uint32_t canary_weight,
                          std::uint32_t primary_weight) {
  impl_->alias = alias;
  impl_->aliases.publish(alias, impl_->models[primary]);
  impl_->aliases.set_canary(alias, impl_->models[canary], canary_weight, primary_weight);
}

Admit Fleet::alias_try_submit(const std::string& alias, Bits inputs, Answer* out,
                              Clock::time_point deadline) {
  return admit_of(impl_->aliases.try_submit(alias, std::move(inputs), out, deadline));
}

void Fleet::attach_cascade(const CascadePair& pair, std::size_t predicate_bit,
                           std::size_t shard) {
  lbnn::runtime::Engine& engine = impl_->router.shard(shard);
  auto tiny = engine.load("cascade_tiny", AdapterAccess::of(pair.tiny).netlist());
  auto big = engine.load("cascade_big", AdapterAccess::of(pair.big).netlist());
  lbnn::serve::CascadeOptions opt;
  opt.confident = [predicate_bit](const std::vector<bool>& out) {
    return out[predicate_bit];
  };
  impl_->cascade = std::make_unique<lbnn::serve::Cascade>(engine, std::move(tiny),
                                                          std::move(big), std::move(opt));
}

Answer Fleet::cascade_submit(Bits inputs, Clock::time_point deadline) {
  return impl_->cascade->submit(std::move(inputs), deadline);
}

std::size_t Fleet::in_flight() const {
  std::size_t n = 0;
  for (std::size_t s = 0; s < impl_->router.num_shards(); ++s) {
    n += impl_->router.shard(s).in_flight();
  }
  return n;
}

FleetCounts Fleet::counts() const {
  FleetCounts c;
  const lbnn::router::FleetReport r = impl_->router.report();
  c.total = engine_counts(r.total);
  for (const auto& s : r.per_shard) c.shard_requests.push_back(s.requests);
  if (!impl_->alias.empty()) {
    const auto a = impl_->aliases.report(impl_->alias);
    c.alias_submitted = a.submitted;
    c.alias_to_canary = a.to_canary;
  }
  if (impl_->cascade) {
    const auto k = impl_->cascade->report();
    c.cascade_submitted = k.submitted;
    c.cascade_stage1_answered = k.stage1_answered;
    c.cascade_stage2_shed = k.stage2_shed;
  }
  return c;
}

}  // namespace perfbench
