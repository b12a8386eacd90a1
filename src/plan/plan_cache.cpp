#include "plan/plan_cache.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#ifdef __unix__
#include <unistd.h>
#endif

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/plan_io.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/str.hpp"
#include "support/timer.hpp"
#include "verify/plan_verifier.hpp"

namespace chimera::plan {

namespace {

namespace fs = std::filesystem;

/**
 * Canonical text for every plan-affecting planner option. Doubles are
 * printed as hexfloat so the key never depends on decimal rounding.
 * String appends, not ostringstream: warm lookup path.
 */
std::string
optionsSignature(const PlannerOptions &options)
{
    char cap[64];
    // %a of a double is at most ~30 chars; the buffer cannot truncate
    // (cert-err33-c).
    static_cast<void>(
        std::snprintf(cap, sizeof cap, "%a", options.memCapacityBytes));
    std::string out;
    out += std::string("cap=") + cap;
    out += ";maxperm=" + std::to_string(options.maxPermutations);
    out += ";sweeps=" + std::to_string(options.solverSweeps);
    out += ";execonly=";
    out += options.onlyExecutableOrders ? "1" : "0";
    out += ";interio=";
    out += options.model.intermediatesAreIO ? "1" : "0";
    // Thread-aware knobs: an 8-worker chunked plan must never be served
    // to a 1-thread run (and vice versa), and a different topology or
    // grain target changes the tiles. `threads` (the search loop) is
    // deliberately absent — it never changes the plan.
    out += ";xthreads=" + std::to_string(std::max(1, options.execThreads));
    if (options.execThreads > 1) {
        out += ";cpw=" + std::to_string(options.chunksPerWorker);
    }
    if (options.topology.hasTopology()) {
        out += ";topo=" + options.topology.name + ":" +
               std::to_string(options.topology.cores);
        for (const model::MemoryLevel &level : options.topology.levels) {
            char capBytes[64];
            static_cast<void>(std::snprintf(capBytes, sizeof capBytes,
                                            "%a", level.capacityBytes));
            out += ",";
            out += level.name;
            out += level.scope == model::LevelScope::Shared ? "/s:" : "/p:";
            out += capBytes;
        }
    }
    // The safety domain, emitted only when non-default so every
    // fingerprint minted before the analyzer existed stays valid (old
    // entries deserialize as uncertified and are re-certified by the
    // consumers that require a certificate).
    if (!options.safetyDomain.empty()) {
        out += ";sbdom=";
        for (const auto &[axis, maxExtent] : options.safetyDomain) {
            out += axis + ":" + std::to_string(maxExtent) + ",";
        }
    }
    // The pruning mode is not part of the key: every mode picks the
    // bitwise-identical plan as exhaustive enumeration, so entries
    // minted under any of them (and every pre-pruning entry) stay
    // interchangeable.
    auto emitMap =
        [&out](const char *name,
               const std::map<ir::AxisId, std::int64_t> &entries) {
            out += ";";
            out += name;
            out += "=";
            for (const auto &[axis, value] : entries) {
                out += std::to_string(axis) + ":" +
                       std::to_string(value) + ",";
            }
        };
    emitMap("mult", options.constraints.multipleOf);
    emitMap("fixed", options.constraints.fixed);
    emitMap("max", options.constraints.maxTile);
    emitMap("min", options.constraints.minTile);
    return out;
}

/**
 * Best-effort whole-file read; nullopt when unreadable/absent. C stdio,
 * not ifstream — the first stream construction in a fresh process costs
 * far more than reading a plan-sized file.
 */
std::optional<std::string>
readFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        return std::nullopt;
    }
    std::string contents;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
        contents.append(buffer, n);
    }
    const bool ok = std::ferror(file) == 0;
    // Read-only stream: ferror above already captured any IO defect, so
    // a close failure cannot change the outcome (cert-err33-c).
    static_cast<void>(std::fclose(file));
    if (!ok) {
        return std::nullopt;
    }
    return contents;
}

/**
 * Suffix every store() writer appends to the entry path before the
 * atomic rename. Also the marker the orphan sweep looks for: any
 * "<fp>.plan.tmp.<pid>.<seq>" left behind by a crashed writer.
 */
constexpr char kTempMarker[] = ".tmp.";

/** Unique-per-writer temp path: pid disambiguates processes, the
 * process-wide counter disambiguates threads within one process. Two
 * writers racing on the same fingerprint therefore never share a temp
 * file — each publishes its own complete document via rename. */
std::string
uniqueTempPath(const std::string &entryPath)
{
    static std::atomic<std::uint64_t> sequence{0};
#ifdef __unix__
    const long pid = static_cast<long>(::getpid());
#else
    const long pid = 0;
#endif
    return entryPath + kTempMarker + std::to_string(pid) + "." +
           std::to_string(sequence.fetch_add(1,
                                             std::memory_order_relaxed));
}

/**
 * Age before an orphaned temp file is considered abandoned. Live
 * writers hold a temp only for one serialize+rename, so anything this
 * old belongs to a crashed process; anything younger may still be
 * mid-write by a concurrent store and must be left alone.
 */
constexpr auto kOrphanTempAge = std::chrono::minutes(10);

} // namespace

std::string
planFingerprint(const ir::Chain &chain, const PlannerOptions &options)
{
    return fnv1a64Hex(ir::chainSignature(chain) + "|" +
                      optionsSignature(options));
}

PlanCache::PlanCache(std::string directory)
    : directory_(std::move(directory)),
      memoryHits_(registry_.counter("chimera.plan.cache.memory_hits")),
      diskHits_(registry_.counter("chimera.plan.cache.disk_hits")),
      misses_(registry_.counter("chimera.plan.cache.misses")),
      stores_(registry_.counter("chimera.plan.cache.stores")),
      corruptEntries_(
          registry_.counter("chimera.plan.cache.corrupt_entries")),
      rejectedPlans_(registry_.counter("chimera.plan.cache.rejected_plans"))
{
    removeOrphanedTempFiles();
}

void
PlanCache::removeOrphanedTempFiles()
{
    if (directory_.empty()) {
        return;
    }
    std::error_code ec;
    fs::directory_iterator it(directory_, ec);
    if (ec) {
        return; // absent/unreadable directory: nothing to sweep
    }
    const auto now = fs::file_time_type::clock::now();
    for (const fs::directory_entry &entry :
         fs::directory_iterator(directory_, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.find(kTempMarker) == std::string::npos) {
            continue;
        }
        std::error_code entryEc;
        const fs::file_time_type written =
            fs::last_write_time(entry.path(), entryEc);
        if (entryEc || now - written < kOrphanTempAge) {
            continue;
        }
        if (fs::remove(entry.path(), entryEc); !entryEc) {
            CHIMERA_INFO("plan cache removed orphaned temp file "
                         << entry.path().string());
        }
    }
}

std::string
PlanCache::defaultDirectory()
{
    if (const char *env = std::getenv("CHIMERA_PLAN_CACHE")) {
        return env; // empty value = explicitly memory-only
    }
    if (const char *home = std::getenv("HOME");
        home != nullptr && *home != '\0') {
        return std::string(home) + "/.cache/chimera";
    }
    return "";
}

PlanCache &
PlanCache::global()
{
    static PlanCache cache(defaultDirectory());
    return cache;
}

std::string
PlanCache::entryPath(const std::string &fingerprint) const
{
    return directory_ + "/" + fingerprint + ".plan";
}

std::optional<ExecutionPlan>
PlanCache::lookup(const ir::Chain &chain, const PlannerOptions &options)
{
    const WallTimer timer;
    const std::string fingerprint = planFingerprint(chain, options);
    obs::Span span(obs::trace(), "plan.cache.lookup", "plan");
    span.arg("fingerprint", fingerprint);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = memory_.find(fingerprint);
        if (it != memory_.end()) {
            memoryHits_.add();
            span.arg("outcome", std::string("memory-hit"));
            ExecutionPlan plan = it->second;
            plan.candidatesExamined = 0;
            plan.planSeconds = timer.seconds();
            return plan;
        }
    }
    if (!directory_.empty()) {
        if (const std::optional<std::string> text =
                readFile(entryPath(fingerprint))) {
            // One pass binds the entry and audits its schedule under the
            // *current* options (a tampered entry whose footprint blows
            // the capacity, or a non-executable order written when the
            // filter was off, still binds). Predictions are re-derived
            // while binding, so the brute-force recount adds nothing.
            verify::PlanVerifyOptions vo = verify::planVerifyOptions(options);
            vo.recount = false;
            std::optional<ExecutionPlan> resolved;
            const verify::Report audit = verify::verifyPlanDocument(
                chain, *text, fingerprint, vo, &resolved);
            if (!resolved) {
                // Stale/corrupt entry: replan silently; the store after
                // planning overwrites it with a valid document.
                CHIMERA_INFO("ignoring bad plan cache entry "
                             << entryPath(fingerprint) << ":\n"
                             << audit.render());
                corruptEntries_.add();
            } else if (audit.hasErrors()) {
                CHIMERA_INFO("rejecting illegal plan cache entry "
                             << entryPath(fingerprint) << ":\n"
                             << audit.render());
                rejectedPlans_.add();
                misses_.add();
                span.arg("outcome", std::string("rejected"));
                return std::nullopt;
            } else {
                ExecutionPlan plan = std::move(*resolved);
                diskHits_.add();
                span.arg("outcome", std::string("disk-hit"));
                std::lock_guard<std::mutex> lock(mutex_);
                memory_[fingerprint] = plan;
                plan.candidatesExamined = 0;
                plan.planSeconds = timer.seconds();
                return plan;
            }
        }
    }
    misses_.add();
    span.arg("outcome", std::string("miss"));
    return std::nullopt;
}

void
PlanCache::store(const ir::Chain &chain, const PlannerOptions &options,
                 const ExecutionPlan &plan)
{
    const std::string fingerprint = planFingerprint(chain, options);
    obs::Span span(obs::trace(), "plan.cache.store", "plan");
    span.arg("fingerprint", fingerprint);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        memory_[fingerprint] = plan;
    }
    stores_.add();
    if (directory_.empty() ||
        diskDisabled_.load(std::memory_order_relaxed)) {
        return;
    }
    std::error_code ec;
    fs::create_directories(directory_, ec);
    if (ec) {
        disableDisk("cannot create " + directory_ + " (" + ec.message() +
                    ")");
        return;
    }
    // Write-then-rename keeps concurrent readers off half-written
    // files; the unique temp name keeps concurrent *writers* of the
    // same fingerprint off each other's half-written temp (a fixed
    // suffix let a second writer O_TRUNC a temp the first was about to
    // rename, publishing a torn document).
    const std::string path = entryPath(fingerprint);
    const std::string tmp = uniqueTempPath(path);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            disableDisk("cannot write " + tmp);
            return;
        }
        out << serializePlan(chain, plan, fingerprint);
        if (!out.flush()) {
            disableDisk("write failed for " + tmp);
            fs::remove(tmp, ec);
            return;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        // Rename within one directory should never fail on a writable
        // filesystem; treat it like any other disk defect.
        disableDisk("cannot rename " + tmp + " to " + path + " (" +
                    ec.message() + ")");
        fs::remove(tmp, ec);
    }
}

void
PlanCache::disableDisk(const std::string &reason)
{
    if (!diskDisabled_.exchange(true, std::memory_order_relaxed)) {
        CHIMERA_WARN("plan cache degraded to memory-only: "
                     << reason << " (further stores stay in memory)");
    }
}

PlanCacheStats
PlanCache::stats() const
{
    PlanCacheStats out;
    out.memoryHits = static_cast<int>(memoryHits_.value());
    out.diskHits = static_cast<int>(diskHits_.value());
    out.misses = static_cast<int>(misses_.value());
    out.stores = static_cast<int>(stores_.value());
    out.corruptEntries = static_cast<int>(corruptEntries_.value());
    out.rejectedPlans = static_cast<int>(rejectedPlans_.value());
    out.diskDisabled = diskDisabled_.load(std::memory_order_relaxed);
    return out;
}

} // namespace chimera::plan
