#include "plan/plan_io.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "analysis/dependence.hpp"
#include "model/data_movement.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace chimera::plan {

namespace {

std::string
lineContext(int lineNumber, const std::string &line)
{
    return "plan document line " + std::to_string(lineNumber) + " (\"" +
           line + "\")";
}

/**
 * Splits the value of a "key: a=1 b=2" line into its name=value tokens,
 * in order. A token without "=", with an empty name or value, or
 * repeating an earlier name throws, naming the line (@p context) and
 * the line's @p what ("tile", "grain", ...).
 */
std::vector<std::pair<std::string, std::string>>
splitFields(const std::string &value, const std::string &context,
            const char *what)
{
    std::vector<std::pair<std::string, std::string>> fields;
    std::set<std::string> seen;
    std::size_t tokenStart = 0;
    while (tokenStart < value.size()) {
        tokenStart = value.find_first_not_of(" \t", tokenStart);
        if (tokenStart == std::string::npos) {
            break;
        }
        std::size_t tokenEnd = value.find_first_of(" \t", tokenStart);
        if (tokenEnd == std::string::npos) {
            tokenEnd = value.size();
        }
        const std::string token =
            value.substr(tokenStart, tokenEnd - tokenStart);
        tokenStart = tokenEnd;
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
            throw Error(context + ": malformed " + what + " token \"" +
                        token + "\"");
        }
        std::string name = token.substr(0, eq);
        if (!seen.insert(name).second) {
            throw Error(context + ": duplicate " + what + " for \"" +
                        name + "\"");
        }
        fields.emplace_back(std::move(name), token.substr(eq + 1));
    }
    return fields;
}

/**
 * Resolves an "order:" value into @p perm: each comma-separated name to
 * its axis (PL02 for a name the chain does not have), then the axes the
 * value omits (pinned kernel axes) appended innermost. Whether the
 * result is a permutation is not judged here. Returns false when some
 * name did not resolve.
 */
bool
bindOrder(const ir::Chain &chain, const std::string &order,
          std::vector<ir::AxisId> &perm, verify::Report &defects)
{
    // Manual split (no stringstream): runs during warm plan-cache
    // lookups, where first-stream construction cost matters.
    bool ok = true;
    std::size_t start = 0;
    while (start < order.size()) {
        std::size_t comma = order.find(',', start);
        if (comma == std::string::npos) {
            comma = order.size();
        }
        const std::string name = order.substr(start, comma - start);
        start = comma + 1;
        const ir::AxisId axis = chain.findAxis(name);
        if (axis < 0) {
            defects.error("PL02", "order", "unknown axis name: " + name);
            ok = false;
            continue;
        }
        perm.push_back(axis);
    }
    for (ir::AxisId a = 0; a < chain.numAxes(); ++a) {
        if (std::find(perm.begin(), perm.end(), a) == perm.end()) {
            perm.push_back(a);
        }
    }
    return ok;
}

/**
 * Binds a "concurrency:" declaration: resolves axis names, parses kind
 * tokens, and rejects unknown axes, unknown kinds and incomplete
 * coverage (every chain axis exactly once). Throws chimera::Error
 * naming the defect (the binder records it as PL12).
 */
std::vector<analysis::AxisConcurrency>
bindConcurrency(
    const ir::Chain &chain,
    const std::vector<std::pair<std::string, std::string>> &entries)
{
    std::vector<analysis::AxisConcurrency> kinds(
        static_cast<std::size_t>(chain.numAxes()),
        analysis::AxisConcurrency::Sequential);
    std::vector<bool> bound(static_cast<std::size_t>(chain.numAxes()),
                            false);
    for (const auto &[axisName, kindName] : entries) {
        const ir::AxisId axis = chain.findAxis(axisName);
        if (axis < 0) {
            throw Error("plan concurrency declares axis \"" + axisName +
                        "\" which chain " + chain.name() +
                        " does not have");
        }
        // Repeated names never get here: the parser rejects them.
        const std::size_t slot = static_cast<std::size_t>(axis);
        bound[slot] = true;
        kinds[slot] = analysis::concurrencyFromName(
            kindName, "plan concurrency for axis \"" + axisName + "\"");
    }
    for (int a = 0; a < chain.numAxes(); ++a) {
        if (!bound[static_cast<std::size_t>(a)]) {
            throw Error("plan concurrency is incomplete: axis \"" +
                        chain.axisName(a) + "\" has no declared class");
        }
    }
    return kinds;
}

/**
 * Binds a "safety:" declaration: exactly the domain/digest keys, a
 * well-formed shape domain naming only chain axes, and a 16-hex digest.
 * Throws chimera::Error naming the defect (the binder records it as
 * PL14). Whether the digest *value* matches the schedule is the PL14
 * validator's job (verify/safety_verifier.hpp).
 */
analysis::SafetyCertificate
bindSafety(const ir::Chain &chain,
           const std::vector<std::pair<std::string, std::string>> &entries)
{
    analysis::SafetyCertificate cert;
    for (const auto &[field, value] : entries) {
        if (field == "domain") {
            cert.domain = value;
        } else if (field == "digest") {
            cert.digest = value;
        } else {
            throw Error("plan safety line has unknown field \"" + field +
                        "\"");
        }
    }
    // The parser rejects empty values, so empty means absent.
    if (cert.domain.empty() || cert.digest.empty()) {
        throw Error("plan safety line must carry domain= and digest=");
    }
    // Validates the domain grammar and that it names only chain axes
    // (and admits each concrete extent); the result is discarded — the
    // certificate keeps the canonical string form.
    (void)analysis::parseShapeDomain(chain, cert.domain,
                                     "plan safety domain");
    if (cert.digest.size() != 16 ||
        cert.digest.find_first_not_of("0123456789abcdef") !=
            std::string::npos) {
        throw Error("plan safety digest \"" + cert.digest +
                    "\" is not 16 lowercase hex digits");
    }
    cert.certified = true;
    return cert;
}

/** Throws the message of the first error in @p defects, if any. */
void
throwFirstError(const verify::Report &defects)
{
    for (const verify::Finding &finding : defects.findings()) {
        if (finding.severity == verify::Severity::Error) {
            throw Error(finding.message);
        }
    }
}

} // namespace

std::string
serializePlan(const ir::Chain &chain, const ExecutionPlan &plan,
              const std::string &fingerprint)
{
    model::validatePermutation(chain, plan.perm);
    model::validateTiles(chain, plan.tiles);
    std::ostringstream out;
    out << "chimera-plan v2\n";
    if (!fingerprint.empty()) {
        out << "fingerprint: " << fingerprint << "\n";
    }
    out << "chain: " << chain.name() << "\n";
    out << "order: " << orderString(chain, plan.perm) << "\n";
    out << "tiles:";
    for (int a = 0; a < chain.numAxes(); ++a) {
        out << " " << chain.axisName(a) << "="
            << plan.tiles[static_cast<std::size_t>(a)];
    }
    out << "\n";
    if (static_cast<int>(plan.concurrency.size()) == chain.numAxes()) {
        out << "concurrency:";
        for (int a = 0; a < chain.numAxes(); ++a) {
            out << " " << chain.axisName(a) << "="
                << analysis::concurrencyName(
                       plan.concurrency[static_cast<std::size_t>(a)]);
        }
        out << "\n";
    }
    bool anyGrain = false;
    for (std::int64_t g : plan.parallelGrain) {
        anyGrain = anyGrain || g > 1;
    }
    // Serial plans omit both lines so pre-thread-aware documents stay
    // byte-identical (and cache entries written by them keep parsing).
    if (plan.plannedThreads > 1 || anyGrain) {
        out << "threads: " << std::max(1, plan.plannedThreads) << "\n";
    }
    if (anyGrain) {
        CHIMERA_CHECK(static_cast<int>(plan.parallelGrain.size()) ==
                          chain.numAxes(),
                      "plan grain arity does not match the chain");
        out << "grain:";
        for (int a = 0; a < chain.numAxes(); ++a) {
            if (plan.parallelGrain[static_cast<std::size_t>(a)] > 1) {
                out << " " << chain.axisName(a) << "="
                    << plan.parallelGrain[static_cast<std::size_t>(a)];
            }
        }
        out << "\n";
    }
    // Only certified plans carry the line: uncertified documents stay
    // byte-identical to the pre-safety format.
    if (plan.safety.certified) {
        out << "safety: domain=" << plan.safety.domain
            << " digest=" << plan.safety.digest << "\n";
    }
    out << "volume-bytes: " << static_cast<std::int64_t>(
                                   plan.predictedVolumeBytes)
        << "\n";
    out << "mem-bytes: " << plan.memUsageBytes << "\n";
    return out.str();
}

ParsedPlanDoc
parsePlanDocument(const std::string &text)
{
    // Manual line iteration (no istringstream): this runs on the plan
    // cache's warm lookup path, where a fresh process pays ~100us for
    // its first stream construction alone.
    std::size_t cursor = 0;
    auto nextLine = [&text, &cursor](std::string &out) {
        if (cursor >= text.size()) {
            return false;
        }
        std::size_t nl = text.find('\n', cursor);
        if (nl == std::string::npos) {
            nl = text.size();
        }
        out = text.substr(cursor, nl - cursor);
        cursor = nl + 1;
        if (!out.empty() && out.back() == '\r') {
            out.pop_back();
        }
        return true;
    };

    std::string line;
    if (!nextLine(line)) {
        throw Error("empty plan document");
    }
    if (line != "chimera-plan v1" && line != "chimera-plan v2") {
        throw Error("plan document line 1: not a chimera-plan v1/v2 header"
                    " (\"" +
                    line + "\")");
    }

    ParsedPlanDoc doc;
    doc.version = line.back() == '1' ? 1 : 2;
    std::set<std::string> seenKeys;
    int lineNumber = 1;
    while (nextLine(line)) {
        ++lineNumber;
        if (line.empty()) {
            continue;
        }
        const std::string context = lineContext(lineNumber, line);
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) {
            throw Error(context + ": expected \"key: value\"");
        }
        const std::string key = line.substr(0, colon);
        std::string value = line.substr(colon + 1);
        if (!value.empty() && value.front() == ' ') {
            value.erase(0, 1);
        }
        if (!seenKeys.insert(key).second) {
            throw Error(context + ": duplicate key \"" + key + "\"");
        }
        if (key == "chain") {
            doc.chainName = value;
        } else if (key == "fingerprint") {
            doc.fingerprint = value;
        } else if (key == "order") {
            doc.order = value;
            doc.haveOrder = true;
        } else if (key == "tiles") {
            for (const auto &[axisName, tile] :
                 splitFields(value, context, "tile")) {
                doc.tiles.emplace_back(axisName,
                                       parseInt64Strict(tile, context));
            }
            doc.haveTiles = true;
        } else if (key == "concurrency") {
            doc.concurrency = splitFields(value, context, "concurrency");
            doc.haveConcurrency = true;
        } else if (key == "threads") {
            doc.threads = parseInt64Strict(value, context);
            if (doc.threads < 1) {
                throw Error(context + ": threads must be >= 1, got " +
                            std::to_string(doc.threads));
            }
            doc.haveThreads = true;
        } else if (key == "grain") {
            for (const auto &[axisName, grain] :
                 splitFields(value, context, "grain")) {
                const std::int64_t g = parseInt64Strict(grain, context);
                if (g < 1) {
                    throw Error(context + ": grain for axis \"" +
                                axisName + "\" must be >= 1, got " +
                                std::to_string(g));
                }
                doc.grain.emplace_back(axisName, g);
            }
            doc.haveGrain = true;
        } else if (key == "safety") {
            doc.safety = splitFields(value, context, "safety");
            doc.haveSafety = true;
        } else if (key == "volume-bytes") {
            doc.declaredVolumeBytes = parseDoubleStrict(value, context);
            doc.haveVolume = true;
        } else if (key == "mem-bytes") {
            doc.declaredMemBytes = parseInt64Strict(value, context);
            doc.haveMem = true;
        } else {
            throw Error(context + ": unknown plan key \"" + key + "\"");
        }
    }
    return doc;
}

ExecutionPlan
bindPlanDocument(const ir::Chain &chain, const ParsedPlanDoc &doc,
                 verify::Report &defects)
{
    ExecutionPlan plan;
    if (!doc.haveOrder) {
        defects.error("PL05", "order", "plan document has no order line");
    } else if (std::vector<ir::AxisId> perm;
               bindOrder(chain, doc.order, perm, defects)) {
        plan.perm = std::move(perm);
    }

    if (!doc.haveTiles) {
        defects.error("PL05", "tiles", "plan document has no tiles line");
    } else {
        bool ok = true;
        std::vector<std::int64_t> tiles(
            static_cast<std::size_t>(chain.numAxes()), 0);
        std::vector<bool> haveTile(tiles.size(), false);
        for (const auto &[axisName, tile] : doc.tiles) {
            const ir::AxisId axis = chain.findAxis(axisName);
            if (axis < 0) {
                defects.error("PL02", "tiles",
                              "unknown axis name: " + axisName);
                ok = false;
                continue;
            }
            tiles[static_cast<std::size_t>(axis)] = tile;
            haveTile[static_cast<std::size_t>(axis)] = true;
        }
        for (ir::AxisId a = 0; a < chain.numAxes(); ++a) {
            if (!haveTile[static_cast<std::size_t>(a)]) {
                defects.error("PL05", "tiles." + chain.axisName(a),
                              "plan tiles give no size for axis " +
                                  chain.axisName(a));
                ok = false;
            }
        }
        if (ok) {
            plan.tiles = std::move(tiles);
        }
    }

    if (doc.haveConcurrency) {
        try {
            plan.concurrency = bindConcurrency(chain, doc.concurrency);
        } catch (const Error &e) {
            defects.error("PL12", "concurrency", e.what());
        }
    }

    // Thread-aware chunking lines: a grain only makes sense relative to
    // the worker count it was solved for.
    if (doc.haveGrain && !doc.haveThreads) {
        defects.error("PL13", "grain",
                      "plan document has a grain line without a threads"
                      " line");
    }
    plan.plannedThreads = static_cast<int>(doc.threads);
    if (doc.haveThreads || doc.haveGrain) {
        plan.parallelGrain.assign(static_cast<std::size_t>(chain.numAxes()),
                                  1);
        for (const auto &[axisName, g] : doc.grain) {
            const ir::AxisId axis = chain.findAxis(axisName);
            if (axis < 0) {
                defects.error("PL02", "grain",
                              "plan grain declares axis \"" + axisName +
                                  "\" which chain " + chain.name() +
                                  " does not have");
                continue;
            }
            plan.parallelGrain[static_cast<std::size_t>(axis)] = g;
        }
    }

    if (doc.haveSafety) {
        try {
            plan.safety = bindSafety(chain, doc.safety);
        } catch (const Error &e) {
            defects.error("PL14", "safety", e.what());
        }
    }

    plan.predictedVolumeBytes = doc.declaredVolumeBytes;
    plan.memUsageBytes = doc.declaredMemBytes;
    return plan;
}

ExecutionPlan
deserializePlan(const ir::Chain &chain, const std::string &text,
                const std::string &expectedFingerprint)
{
    const ParsedPlanDoc doc = parsePlanDocument(text);
    if (!expectedFingerprint.empty() &&
        doc.fingerprint != expectedFingerprint) {
        throw Error("plan fingerprint mismatch: expected " +
                    expectedFingerprint + ", document carries " +
                    (doc.fingerprint.empty() ? std::string("none")
                                             : doc.fingerprint));
    }
    verify::Report defects;
    ExecutionPlan plan = bindPlanDocument(chain, doc, defects);
    throwFirstError(defects);
    model::validatePermutation(chain, plan.perm);
    model::validateTiles(chain, plan.tiles);
    plan.concurrency = effectiveConcurrency(chain, plan);

    // Recompute the predictions so a stale document cannot lie.
    const model::DataMovement dm =
        model::computeDataMovement(chain, plan.perm, plan.tiles);
    plan.predictedVolumeBytes = dm.volumeBytes;
    plan.memUsageBytes = dm.memUsageBytes;
    return plan;
}

std::vector<ir::AxisId>
permFromOrderString(const ir::Chain &chain, const std::string &order)
{
    verify::Report defects;
    std::vector<ir::AxisId> perm;
    bindOrder(chain, order, perm, defects);
    throwFirstError(defects);
    model::validatePermutation(chain, perm);
    return perm;
}

} // namespace chimera::plan
