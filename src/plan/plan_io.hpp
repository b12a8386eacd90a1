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
 * verifier's job (SB04 refutes an axis marked parallel without a
 * disjointness proof; DP04 warns about a proven-parallel axis declared
 * serial), not the binder's: chimera-check needs mis-declared documents
 * to load so its dynamic race checker can demonstrate the conflict.
 *
 * The safety line is the plan's one certificate (SB01-SB04, see
 * analysis/static_safety.hpp): the shape domain all four rules were
 * proven over and one digest binding it to the chain signature and the
 * full schedule. It is emitted only for certified plans (uncertified
 * documents stay byte-identical to the pre-safety format) and policed
 * on load: the binder rejects malformed lines, while rule PL14
 * re-derives the digest and re-runs the analyzer so a certificate can
 * neither be forged nor replayed onto a different schedule.
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
 * input never escapes as a raw std:: exception. The parsed document is
 * then bound to the chain it is applied to (bindPlanDocument: axis
 * names, coverage), validated (tile ranges, permutation completeness)
 * and its predictions are recomputed, so a stale or tampered document
 * cannot lie.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "plan/planner.hpp"
#include "verify/diagnostics.hpp"

namespace chimera::plan {

/**
 * Raw fields of a plan document after the syntax pass, before binding
 * to a chain. parsePlanDocument fills this and bindPlanDocument — the
 * only binder — resolves it against a chain. deserializePlan (the plan
 * cache's disk-hit path) and verify::verifyPlanDocument (chimera-check)
 * both bind through it: the first throws on the first defect, the
 * second reports every defect of an adversarial document.
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
     * order. Axis and kind names are resolved by the binder (PL12).
     */
    std::vector<std::pair<std::string, std::string>> concurrency;

    /** Value of the "threads:" line (>= 1 enforced at parse time). */
    std::int64_t threads = 1;

    /** (axis name, grain) pairs from the "grain:" line, in order. */
    std::vector<std::pair<std::string, std::int64_t>> grain;

    /**
     * (key, value) pairs from the "safety:" line, in order (expected
     * keys: domain, digest). Token grammar is enforced at parse time;
     * exactly those keys, a valid domain and the digest shape are the
     * binder's (PL14).
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
 * The one plan-document binder: resolves @p doc against @p chain into
 * an ExecutionPlan and records every name-binding defect in @p defects
 * under its verifier rule id instead of stopping at the first:
 *  - PL02  an unknown axis in the order, tiles or grain line
 *  - PL05  a missing order or tiles line, or an axis with no tile
 *  - PL12  a concurrency line naming an unknown axis or kind, or not
 *          covering every chain axis
 *  - PL13  a grain line without a threads line
 *  - PL14  a malformed safety line (fields, domain, digest shape)
 *
 * It does not judge values: the bound perm may repeat an axis and the
 * tiles may be out of range, and neither the declared concurrency nor
 * the certificate's digest is checked. deserializePlan throws the
 * first defect and validates; verify::verifyPlanDocument reports them
 * all and verifies the bound plan.
 *
 * In the bound plan, perm (tiles) is empty when the order (tiles) line
 * does not bind; concurrency is empty when the document declares none
 * or the declaration does not bind; safety is uncertified unless the
 * safety line binds; grain is all 1s plus the declared entries when the
 * document has a threads or grain line, else empty; the predictions are
 * the declared values (0 when a line is absent).
 */
ExecutionPlan bindPlanDocument(const ir::Chain &chain,
                               const ParsedPlanDoc &doc,
                               verify::Report &defects);

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
 * input, and on chain mismatch after parsing: the first defect
 * bindPlanDocument records, then an invalid permutation or tile range.
 * A document without a concurrency line gets a fresh analysis.
 */
ExecutionPlan deserializePlan(const ir::Chain &chain,
                              const std::string &text,
                              const std::string &expectedFingerprint = "");

} // namespace chimera::plan
