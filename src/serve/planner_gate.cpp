#include "serve/planner_gate.hpp"

#include "exec/constraints.hpp"
#include "kernels/micro_kernel.hpp"
#include "obs/trace.hpp"
#include "support/cpu_features.hpp"
#include "support/error.hpp"

namespace chimera::serve {

ir::GemmChainConfig
canonicalSlice(const ir::GemmChainConfig &config)
{
    ir::GemmChainConfig slice = config;
    slice.batch = 1;
    slice.name = "serve-slice";
    return slice;
}

PlannerGate::PlannerGate(const PlannerGateOptions &options)
    : options_(options),
      cache_(options.cacheDir == "-"
                 ? std::string()
                 : (options.cacheDir.empty()
                        ? plan::PlanCache::defaultDirectory()
                        : options.cacheDir))
{
}

plan::PlannerOptions
PlannerGate::plannerOptions(const ir::Chain &chain) const
{
    plan::PlannerOptions po;
    po.memCapacityBytes = options_.capacityBytes;
    po.constraints = exec::cpuChainConstraints(
        chain,
        kernels::MicroKernelRegistry::instance().select(detectSimdTier()));
    po.verify = options_.verifyPlans;
    return po;
}

void
PlannerGate::ensureCertified(const ir::Chain &chain,
                             const plan::PlannerOptions &po,
                             plan::ExecutionPlan &plan)
{
    if (!plan.safety.certified) {
        // Cache entries written before the analyzer existed carry no
        // `safety:` line; prove them now rather than refusing them.
        const analysis::SafetyAnalysis analysis =
            plan::certifyPlan(chain, po, plan);
        if (!plan.safety.certified) {
            throw Error("refusing to serve an uncertified plan; the "
                        "static safety analyzer found:\n" +
                        analysis.renderViolations());
        }
        recertifiedPlans_.fetch_add(1, std::memory_order_relaxed);
    }
    certifiedPlans_.fetch_add(1, std::memory_order_relaxed);
}

plan::ExecutionPlan
PlannerGate::once(const ir::Chain &chain, const plan::PlannerOptions &po,
                  const std::function<plan::ExecutionPlan()> &planFn)
{
    const std::string key = plan::planFingerprint(chain, po);
    std::unique_lock<std::mutex> lock(flightMutex_);
    if (const auto it = flights_.find(key); it != flights_.end()) {
        flightsJoined_.fetch_add(1, std::memory_order_relaxed);
        const std::shared_ptr<Flight> flight = it->second;
        flightDone_.wait(lock, [&] { return flight->done; });
        if (flight->error) {
            std::rethrow_exception(flight->error);
        }
        return flight->plan;
    }
    // The caller's miss may predate a flight that finished since: its
    // leader stored the plan before erasing the flight, so the cache
    // has it now.
    if (std::optional<plan::ExecutionPlan> hit = cache_.lookup(chain, po)) {
        return *hit;
    }
    const auto flight = std::make_shared<Flight>();
    flights_[key] = flight;
    flightsLed_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();

    try {
        plan::ExecutionPlan plan = planFn();
        lock.lock();
        flight->plan = plan;
        flight->done = true;
        flights_.erase(key);
        flightDone_.notify_all();
        return plan;
    } catch (...) {
        lock.lock();
        flight->error = std::current_exception();
        flight->done = true;
        flights_.erase(key);
        flightDone_.notify_all();
        throw;
    }
}

plan::ExecutionPlan
PlannerGate::canonicalPlan(const ir::GemmChainConfig &config)
{
    const ir::GemmChainConfig slice = canonicalSlice(config);
    const ir::Chain chain = ir::makeGemmChain(slice);
    const plan::PlannerOptions po = plannerOptions(chain);
    obs::TraceRecorder *const tracer = obs::trace();
    obs::Span span(tracer, "serve.gate.canonical", "serve");
    if (tracer != nullptr) {
        span.arg("fingerprint", plan::planFingerprint(chain, po));
    }
    // Fast path: fingerprint hits never touch the flight table.
    if (std::optional<plan::ExecutionPlan> hit = cache_.lookup(chain, po)) {
        ensureCertified(chain, po, *hit);
        span.arg("outcome", std::string("hit"))
            .arg("dv_bytes", hit->predictedVolumeBytes)
            .arg("mu_bytes", hit->memUsageBytes);
        return *hit;
    }
    plan::ExecutionPlan plan = once(chain, po, [&] {
        // The leader plans with the cache detached (the gate already
        // looked it up); the store publishes the plan for both tiers
        // (and for other processes) before followers wake.
        plan::ExecutionPlan fresh = plan::planChain(chain, po);
        cache_.store(chain, po, fresh);
        return fresh;
    });
    ensureCertified(chain, po, plan);
    span.arg("outcome", std::string("planned"))
        .arg("dv_bytes", plan.predictedVolumeBytes)
        .arg("mu_bytes", plan.memUsageBytes);
    return plan;
}

plan::ExecutionPlan
PlannerGate::batchedPlan(const ir::GemmChainConfig &config,
                         std::int64_t totalBatch)
{
    CHIMERA_CHECK(totalBatch > 1,
                  "batchedPlan requires a total batch > 1; the canonical "
                  "plan covers single slices");
    const ir::GemmChainConfig slice = canonicalSlice(config);
    const plan::ExecutionPlan canonical = canonicalPlan(slice);
    const ir::Chain sliceChain = ir::makeGemmChain(slice);

    ir::GemmChainConfig batchedConfig = slice;
    batchedConfig.batch = totalBatch;
    batchedConfig.name = "serve-batched";
    const ir::Chain chain = ir::makeGemmChain(batchedConfig);

    // Pin every canonical tile (by axis name) and hold the b tile at 1:
    // the per-slice block walk is then the canonical plan's, so slice
    // arithmetic — and output bits — cannot depend on the group size.
    plan::PlannerOptions po = plannerOptions(chain);
    for (ir::AxisId axis = 0; axis < sliceChain.numAxes(); ++axis) {
        const std::string &name =
            sliceChain.axes()[static_cast<std::size_t>(axis)].name;
        po.constraints.fixed[ir::axisIdByName(chain, name)] =
            canonical.tiles[static_cast<std::size_t>(axis)];
    }
    po.constraints.fixed[ir::axisIdByName(chain, "b")] = 1;

    obs::TraceRecorder *const tracer = obs::trace();
    obs::Span span(tracer, "serve.gate.batched", "serve");
    if (tracer != nullptr) {
        span.arg("fingerprint", plan::planFingerprint(chain, po))
            .arg("batch", totalBatch);
    }
    if (std::optional<plan::ExecutionPlan> hit = cache_.lookup(chain, po)) {
        ensureCertified(chain, po, *hit);
        span.arg("outcome", std::string("hit"))
            .arg("dv_bytes", hit->predictedVolumeBytes)
            .arg("mu_bytes", hit->memUsageBytes);
        return *hit;
    }
    plan::ExecutionPlan plan = once(chain, po, [&] {
        std::vector<ir::AxisId> perm;
        perm.reserve(static_cast<std::size_t>(chain.numAxes()));
        perm.push_back(ir::axisIdByName(chain, "b"));
        for (const ir::AxisId axis : canonical.perm) {
            perm.push_back(ir::axisIdByName(
                chain, sliceChain.axes()[static_cast<std::size_t>(axis)].name));
        }
        plan::ExecutionPlan derived = plan::planFixedOrder(chain, perm, po);
        derivedPlans_.fetch_add(1, std::memory_order_relaxed);
        cache_.store(chain, po, derived);
        return derived;
    });
    ensureCertified(chain, po, plan);
    span.arg("outcome", std::string("planned"))
        .arg("dv_bytes", plan.predictedVolumeBytes)
        .arg("mu_bytes", plan.memUsageBytes);
    return plan;
}

PlannerGateStats
PlannerGate::stats() const
{
    PlannerGateStats out;
    out.flightsLed = flightsLed_.load(std::memory_order_relaxed);
    out.flightsJoined = flightsJoined_.load(std::memory_order_relaxed);
    out.derivedPlans = derivedPlans_.load(std::memory_order_relaxed);
    out.certifiedPlans = certifiedPlans_.load(std::memory_order_relaxed);
    out.recertifiedPlans =
        recertifiedPlans_.load(std::memory_order_relaxed);
    out.cache = cache_.stats();
    return out;
}

} // namespace chimera::serve
