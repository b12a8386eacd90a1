#pragma once

/**
 * @file
 * Plan serialization: a stable, human-readable text format so planned
 * schedules can be cached across runs (planning is cheap but kernels
 * may be planned once and deployed many times) and inspected in code
 * review. Current format:
 *
 *     chimera-plan v2
 *     fingerprint: 1f0c64d2a9b3e781
 *     chain: attention
 *     order: m,l,k,n
 *     tiles: m=128 l=64 k=64 n=64
 *     concurrency: m=parallel l=reduction k=reduction n=parallel
 *     threads: 8
 *     grain: m=2
 *     safety: domain=concrete digest=9ab1c3d5e7f90246
 *     volume-bytes: 6291456
 *     mem-bytes: 393216
 *
 * The document states the schedule (order, tiles, concurrency, threads,
 * grain) plus one certificate; volume-bytes and mem-bytes are
 * recomputed on load. Keys outside this list — including the
 * `search:` line older v2 documents carried — are rejected with the
 * offending line named, so such a plan-cache entry is replanned and
 * overwritten.
 *
 * The threads/grain lines carry the thread-aware chunking: the worker
 * count the plan was solved for and the blocks-per-dispatch-chunk grain
 * of each parallel region axis (axes omitted from "grain:" default to
 * 1). Both are omitted for serial plans (threads == 1, all-1 grain), so
 * pre-thread-aware documents remain byte-identical. "threads:" must be
 * >= 1 and grain values must be >= 1 on axes the chain has; a "grain:"
 * line without "threads:" is rejected.
 *
 * The concurrency line declares the per-axis concurrency class the
 * executors obey (see analysis/dependence.hpp). It is optional — a
 * document without one gets a fresh dependence analysis on load — but
 * when present it must cover every chain axis exactly once with a
 * known kind, and axes the chain does not have are rejected outright.
 * Whether the declared classes *agree* with a fresh analysis is the
 * verifier's job (DP rules), not the deserializer's: chimera-check
 * needs mis-declared documents to load so its dynamic race checker can
 * demonstrate the conflict.
 *
 * The safety line is the plan's one certificate (SB01-SB04, see
 * analysis/static_safety.hpp): the shape domain all four rules were
 * proven over and one digest binding it to the chain signature and the
 * full schedule. It is emitted only for certified plans (uncertified
 * documents stay byte-identical to the pre-safety format) and policed
 * on load: malformed lines are rejected by the deserializer, while rule
 * PL14 re-derives the digest and re-runs the analyzer so a certificate
 * can neither be forged nor replayed onto a different schedule.
 *
 * The fingerprint line is optional in hand-written documents and
 * mandatory for plan-cache entries: it hashes the chain structure plus
 * the planner options that produced the plan (see plan_cache.hpp), so a
 * cache entry can never be applied to the wrong key. v1 documents (no
 * fingerprint, same remaining keys) are still read.
 *
 * Deserialization is strict: every numeric field must parse as a full
 * token (trailing garbage such as "m=64abc" is rejected, not truncated),
 * duplicate keys and duplicate tile axes are rejected, and every failure
 * is reported as chimera::Error naming the offending line — malformed
 * input never escapes as a raw std:: exception. The parsed plan is then
 * validated against the chain it is applied to (axis names, tile ranges,
 * permutation completeness) and its predictions are recomputed, so a
 * stale or tampered document cannot lie.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "plan/planner.hpp"

namespace chimera::plan {

/**
 * Raw fields of a plan document after the syntax pass, before binding
 * to a chain. parsePlanDocument fills this; deserializePlan binds it
 * (axis lookup, permutation/tile validation, prediction recompute) and
 * verify::verifyPlanDocument audits it without throwing so chimera-check
 * can report every defect of an adversarial document.
 */
struct ParsedPlanDoc
{
    /** Format version from the header line (1 or 2). */
    int version = 0;

    /** Value of the "fingerprint:" line; empty when absent. */
    std::string fingerprint;

    /** Value of the "chain:" line (informational). */
    std::string chainName;

    /** Raw "order:" value, e.g. "m,l,k,n". */
    std::string order;

    /** (axis name, tile size) pairs from the "tiles:" line, in order. */
    std::vector<std::pair<std::string, std::int64_t>> tiles;

    /**
     * (axis name, kind name) pairs from the "concurrency:" line, in
     * order. Kind names are validated at binding time (PL12/DP01), not
     * here, so the verifier can report instead of throwing.
     */
    std::vector<std::pair<std::string, std::string>> concurrency;

    /** Value of the "threads:" line (>= 1 enforced at parse time). */
    std::int64_t threads = 1;

    /** (axis name, grain) pairs from the "grain:" line, in order. */
    std::vector<std::pair<std::string, std::int64_t>> grain;

    /**
     * (key, value) pairs from the "safety:" line, in order (expected
     * keys: domain, digest). Token grammar is enforced at parse time;
     * semantic binding (exactly those keys, a valid domain, digest
     * shape) is bindSafety's job so the verifier can report PL14
     * instead of throwing.
     */
    std::vector<std::pair<std::string, std::string>> safety;

    double declaredVolumeBytes = 0.0;
    std::int64_t declaredMemBytes = 0;

    bool haveOrder = false;
    bool haveTiles = false;
    bool haveConcurrency = false;
    bool haveThreads = false;
    bool haveGrain = false;
    bool haveSafety = false;
    bool haveVolume = false;
    bool haveMem = false;
};

/**
 * Syntax pass: parses a v1/v2 document into its raw fields without any
 * chain in hand. Throws chimera::Error — naming the offending line — on
 * malformed input (bad header, keyless lines, duplicate keys or tile
 * axes, non-numeric values); axis names and value ranges are *not*
 * checked here, that is the binding/verification layer's job.
 */
ParsedPlanDoc parsePlanDocument(const std::string &text);

/**
 * Binds a parsed "concurrency:" declaration to @p chain: resolves axis
 * names, parses kind tokens, and rejects unknown axes, unknown kinds,
 * duplicates, and incomplete coverage (every chain axis must appear
 * exactly once). Throws chimera::Error naming the defect; the verifier
 * catches it and reports rule PL12 instead. Returns the per-AxisId
 * kinds.
 */
std::vector<analysis::AxisConcurrency> bindConcurrency(
    const ir::Chain &chain,
    const std::vector<std::pair<std::string, std::string>> &entries);

/**
 * Binds a parsed "safety:" declaration to @p chain: requires exactly
 * the domain/digest keys (each once), a well-formed shape domain
 * naming only chain axes, and a 16-hex digest. Throws chimera::Error
 * naming the defect; deserializePlan lets it propagate (cache entries
 * replan) and the verifier reports rule PL14 instead. Returns the certificate with certified = true;
 * whether the digest *value* matches the bound schedule needs the
 * chain + schedule in hand and is the PL14 validator's job.
 */
analysis::SafetyCertificate bindSafety(
    const ir::Chain &chain,
    const std::vector<std::pair<std::string, std::string>> &entries);

/**
 * Serializes @p plan for @p chain into the v2 text format. A non-empty
 * @p fingerprint is embedded as the "fingerprint:" line (the plan cache
 * passes its lookup key; ad-hoc serialization may leave it out).
 */
std::string serializePlan(const ir::Chain &chain, const ExecutionPlan &plan,
                          const std::string &fingerprint = "");

/**
 * Parses a v1 or v2 plan document and validates it against @p chain.
 *
 * When @p expectedFingerprint is non-empty the document must carry a
 * matching "fingerprint:" line; a missing or different value throws
 * (the plan cache turns that into a silent replan).
 *
 * Throws chimera::Error — with the offending line quoted — on malformed
 * input, and on chain mismatch after parsing.
 */
ExecutionPlan deserializePlan(const ir::Chain &chain,
                              const std::string &text,
                              const std::string &expectedFingerprint = "");

} // namespace chimera::plan
