#pragma once

// The benchmark's only door into lbnn (src/). Every other benchmark file
// speaks in the types below, so a change to lbnn's compile or serving API is
// a change to lbnn_adapter.cpp alone.
//
// It calls only API that stays once AOT and the bench-only baseline modes are
// gone: compile() and its public passes, LpuSimulator::run,
// netlist::simulate, Engine::try_submit, Router, RoutedAliasTable and
// Cascade. It never sets EngineOptions::aot, simd, member_stealing, hedging,
// tracing or Scheduling::kGlobalFifo; the engine runs with its defaults apart
// from the worker count and the LPU shape.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Bits = std::vector<bool>;
using Answer = std::future<Bits>;
using Clock = std::chrono::steady_clock;

constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

/// The paper's LPU (Table I): m = 64 LPEs per LPV, tsw = 5, 333 MHz; the LPV
/// count is the caller's (16 for the paper tables, 8 for serving).
constexpr std::uint32_t kPaperLpvs = 16;
constexpr std::uint32_t kServingLpvs = 8;
/// Datapath lanes of the paper LPU (2m).
constexpr std::size_t kLanes = 128;

/// Admission outcome of one non-blocking submit, one value per
/// lbnn::runtime::SubmitStatus.
enum class Admit : std::uint8_t {
  kAccepted,
  kQueueFull,
  kUnloaded,
  kShuttingDown,
  kDeadlineUnmeetable,
};
constexpr std::size_t kAdmitKinds = 5;
const char* admit_name(Admit a);

/// How a resolved answer ended.
enum class Outcome : std::uint8_t { kValue, kDeadlineExceeded, kRefused, kOtherError };
/// Takes the answer's value into *out, or classifies its exception: an
/// admission refusal reported on the future (a Cascade's stage 2) sets
/// *refused, any other exception sets *error to its message.
Outcome take(Answer& answer, Bits* out, Admit* refused, std::string* error);

/// ISA facts lbnn itself resolves on the machine it runs on.
struct HostIsa {
  bool avx2 = false;
  std::string kernel;  ///< LpuSimulator::resolve_kernel(true)
};
HostIsa host_isa();

// ---------------------------------------------------------------- circuits

struct CircuitImpl;

/// An FFCL netlist, optionally tagged with the zoo layer it realizes.
class Circuit {
 public:
  Circuit() = default;
  std::size_t num_inputs() const;
  std::size_t num_gates() const;

 private:
  friend struct AdapterAccess;
  std::shared_ptr<const CircuitImpl> impl_;
};

/// One model of nn::all_models() with every layer synthesized.
struct ZooModel {
  std::string name;  ///< as the zoo spells it ("MLPMixer-S/4")
  std::string key;   ///< metric-name form ("mlpmixer_s_4")
  std::vector<Circuit> layers;
  std::optional<double> published_fps;  ///< the paper's LPU FPS, if quoted
};

/// Synthesizes the first `max_layers` layers of each of the 8 zoo models with
/// the NullaNet-Tiny preset the paper tables use (fan-in 5, 24 neurons, 96
/// inputs), from `seed` alone.
std::vector<ZooModel> synthesize_zoo(std::uint64_t seed,
                                     std::size_t max_layers = SIZE_MAX);

/// reconvergent_grid(96, 24) drawn from `seed`.
Circuit reconvergent_grid(std::uint64_t seed);

/// The cascade pair of bench/serve_cascade.cpp: JSC-L's first layer as a
/// NullaNet-Tiny screen and as the exact XNOR-popcount network, same inputs.
struct CascadePair {
  Circuit tiny;
  Circuit big;
};
CascadePair cascade_pair(std::uint64_t seed);

/// Scalar-per-sample reference outputs, computed bit-parallel with
/// netlist::simulate.
std::vector<Bits> reference(const Circuit& c, const std::vector<Bits>& inputs);

// ---------------------------------------------------------------- compile

struct CompiledImpl;

/// Schedule and size facts of one compiled program.
struct ScheduleCounts {
  std::uint64_t gates_in = 0;
  std::uint64_t gates_balanced = 0;
  std::uint64_t mfgs_before_merge = 0;
  std::uint64_t mfgs_after_merge = 0;
  std::uint64_t retries = 0;
  std::uint64_t wavefronts = 0;
  std::uint64_t bubbles = 0;
  std::uint64_t instances = 0;
  std::uint64_t duplicates = 0;
};

class Compiled {
 public:
  Compiled() = default;
  const ScheduleCounts& counts() const;
  /// Simulated samples/s of the program on the LPU it was compiled for.
  double samples_per_second() const;
  /// The serialized program; equal text means an identical program.
  std::string text() const;

 private:
  friend struct AdapterAccess;
  std::shared_ptr<const CompiledImpl> impl_;
};

/// compile() for the paper LPU with `lpvs` LPVs.
Compiled compile(const Circuit& c, std::uint32_t lpvs);

/// The passes of compile(), called one by one in compile()'s order.
enum class Pass : std::uint8_t {
  kOptimize,
  kTechMap,
  kBalance,
  kPartition,
  kMerge,
  kSchedule,
  kEmit,
};
constexpr std::size_t kPasses = 7;
const char* pass_name(Pass p);
using PassObserver =
    std::function<void(Pass, Clock::time_point start, Clock::time_point end)>;
/// Same program as compile(c, lpvs), built by calling the public passes
/// (optimize, tech_map, balance_paths, partition, merge_mfgs, build_schedule,
/// emit_program) with compile()'s retry ladder. `observe` sees each call.
Compiled compile_by_passes(const Circuit& c, std::uint32_t lpvs,
                           const PassObserver& observe);

/// The paper's frame-rate model over a zoo model's compiled layers.
double model_fps(const ZooModel& m, const std::vector<Compiled>& layers);
double model_cycles_per_frame(const ZooModel& m,
                              const std::vector<Compiled>& layers);

// ---------------------------------------------------------------- simulate

struct BatchImpl;

/// A packed batch of `lanes` samples (one bit vector per netlist port).
class Batch {
 public:
  Batch();
  ~Batch();
  Batch(Batch&&) noexcept;
  Batch& operator=(Batch&&) noexcept;
  bool operator==(const Batch& o) const;

 private:
  friend struct AdapterAccess;
  std::unique_ptr<BatchImpl> impl_;
};

Batch random_batch(const Circuit& c, std::size_t lanes, std::uint64_t seed);
/// netlist::simulate: the oracle every LPU run is checked against.
Batch simulate_reference(const Circuit& c, const Batch& inputs);

struct SimImpl;

/// One LpuSimulator with its default (bit-sliced) kernel.
class Simulator {
 public:
  explicit Simulator(const Compiled& program);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Batch run(const Batch& inputs);
  /// LPE utilization and wavefronts of the last run.
  double lpe_utilization() const;
  std::uint64_t wavefronts() const;

 private:
  std::unique_ptr<SimImpl> impl_;
};

// ---------------------------------------------------------------- serving

/// Serving counters, cumulative since construction.
struct EngineCounts {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t samples = 0;
  std::uint64_t lanes_offered = 0;
  std::uint64_t steals = 0;
  std::uint64_t hedges_launched = 0;
  std::uint64_t expired = 0;
  std::uint64_t shed = 0;
};

/// One lbnn Engine: `workers` threads, paper LPU with kServingLpvs LPVs,
/// every other option at its default.
class Server {
 public:
  explicit Server(unsigned workers);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Compiles and registers a model; returns its id.
  std::size_t load(const std::string& name, const Circuit& c);
  Admit try_submit(std::size_t model, Bits inputs, Answer* out,
                   Clock::time_point deadline = kNoDeadline);
  std::size_t in_flight() const;
  EngineCounts counts() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct FleetCounts {
  EngineCounts total;
  std::vector<std::uint64_t> shard_requests;
  std::uint64_t alias_submitted = 0;
  std::uint64_t alias_to_canary = 0;
  std::uint64_t cascade_submitted = 0;
  std::uint64_t cascade_stage1_answered = 0;
  std::uint64_t cascade_stage2_shed = 0;
};

/// A Router over single-worker shards: every model is placed on every shard,
/// so each submit is a power-of-two-choices pick; the rebalancer is off.
class Fleet {
 public:
  explicit Fleet(std::size_t shards);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::size_t load(const std::string& name, const Circuit& c);
  Admit try_submit(std::size_t model, Bits inputs, Answer* out,
                   Clock::time_point deadline);

  /// Publishes `alias` over two loaded models with a canary:primary split.
  void publish_alias(const std::string& alias, std::size_t primary,
                     std::size_t canary, std::uint32_t canary_weight,
                     std::uint32_t primary_weight);
  Admit alias_try_submit(const std::string& alias, Bits inputs, Answer* out,
                         Clock::time_point deadline);

  /// Loads the pair on shard `shard`'s Engine and chains them in a Cascade
  /// whose screen accepts the tiny answer when its output `predicate_bit` is
  /// set.
  void attach_cascade(const CascadePair& pair, std::size_t predicate_bit,
                      std::size_t shard);
  Answer cascade_submit(Bits inputs, Clock::time_point deadline);

  std::size_t in_flight() const;
  FleetCounts counts() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
