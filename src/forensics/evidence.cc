#include "forensics/evidence.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rssd::forensics {

EvidenceScanner::EvidenceScanner(const remote::BackupCluster &cluster)
    : cluster_(cluster)
{
}

void
EvidenceScanner::failOver(StreamState &st, remote::ShardId replica)
{
    // The cursor and entry cache are per-copy state: reading
    // restarts from the new copy's genesis (or its prune horizon),
    // and the re-read suffix is honestly counted in the next pass's
    // cost.
    if (st.source != remote::kNoShard)
        st.evidence.failovers++;
    st.source = replica;
    st.absPos = 0;
    st.evidence.segmentsVerified = 0;
    st.evidence.bytesVerified = 0;
    st.evidence.entries.clear();
    st.evidence.intact = true;
    st.evidence.fault = log::ChainFault::None;
    st.evidence.segmentsPrunedUnseen = 0;
    st.evidence.reanchors = 0;
}

ScanPassCost
EvidenceScanner::scan()
{
    ScanPassCost pass;

    for (const DeviceId device : cluster_.attachedDevices()) {
        auto [it, created] = streams_.try_emplace(device, StreamState{});
        StreamState &st = it->second;
        if (created)
            st.evidence.device = device;
        pass.streamsScanned++;

        const std::vector<remote::ShardId> live =
            cluster_.liveReplicasOf(device);
        st.evidence.replicas = static_cast<std::uint32_t>(
            cluster_.replicaSetOf(device).size());
        st.evidence.replicasAlive =
            static_cast<std::uint32_t>(live.size());
        st.evidence.tailVotes = 0;
        if (live.empty()) {
            // The whole replica set is dead. The verified prefix
            // cache is all the evidence that survives.
            pass.segmentsCached += st.evidence.segmentsVerified;
            continue;
        }

        // Source selection (read-side voting): prefer any live
        // chain-verifying copy. Re-select on first contact, when
        // the current source died, when the scrubber quarantined it
        // (rotten payload bytes the tail vote cannot see), or when
        // it faulted — a replica fault is exactly what the other
        // copies exist to outvote.
        const bool source_dead =
            st.source != remote::kNoShard &&
            std::find(live.begin(), live.end(), st.source) ==
                live.end();
        const bool source_quarantined =
            st.source != remote::kNoShard && !source_dead &&
            cluster_.copyQuarantined(st.source, device);
        if (st.source == remote::kNoShard || source_dead ||
            source_quarantined || !st.evidence.intact) {
            const remote::ShardId pick =
                cluster_.chainVerifyingReplicaOf(device);
            if (pick != st.source)
                failOver(st, pick);
        }
        st.evidence.shard = st.source;
        const remote::BackupStore &store =
            cluster_.shardStore(st.source);

        const std::uint64_t pruned = store.prunedSegments(device);
        const log::PruneRecord *rec = store.pruneRecordOf(device);
        st.evidence.segmentsPruned = pruned;
        st.evidence.entriesPruned =
            rec != nullptr ? rec->entriesPruned : 0;
        pass.segmentsCached += st.evidence.segmentsVerified;

        // Tail voting across the live set: O(1) per replica — the
        // chain-tail digest authenticates the whole history, so
        // (lastId, tail) agreement is majority agreement on every
        // byte of evidence without re-verifying any copy.
        const remote::BackupStore::StreamTail tail =
            store.streamTail(device);
        for (const remote::ShardId r : live) {
            const remote::BackupStore &peer = cluster_.shardStore(r);
            if (peer.hasStream(device) &&
                peer.streamTail(device) == tail) {
                st.evidence.tailVotes++;
            }
        }

        if (!st.evidence.intact)
            continue; // untrusted suffix: never extend past a fault

        // Retention GC overtook the cursor (or the stream was
        // already pruned at first contact): the store's walk resumes
        // from the signed prune record. Segments expired before we
        // ever read them are evidence lost to the analysis —
        // counted, never silently skipped.
        if (st.absPos < pruned) {
            st.evidence.segmentsPrunedUnseen += pruned - st.absPos;
            st.evidence.reanchors++;
            st.absPos = pruned;
        }

        // The store's one reader hands over each segment past the
        // cursor, verified against the copy's chain from its anchor.
        const bool ok = store.readStream(
            device, st.absPos - pruned,
            [&](const log::SealedSegment &sealed, log::Segment &opened) {
                st.absPos++;
                st.evidence.segmentsVerified++;
                st.evidence.bytesVerified += sealed.wireSize();
                pass.segmentsVerified++;
                pass.bytesVerified += sealed.wireSize();
                pass.entriesReplayed += opened.entries.size();
                for (log::LogEntry &e : opened.entries)
                    st.evidence.entries.push_back(std::move(e));
            });
        if (!ok) {
            st.evidence.intact = false;
            st.evidence.fault = store.chainFault(device);
        }
    }

    passes_++;
    lastPass_ = pass;
    total_.add(pass);
    return pass;
}

std::vector<DeviceId>
EvidenceScanner::devices() const
{
    std::vector<DeviceId> out;
    out.reserve(streams_.size());
    for (const auto &[id, st] : streams_) {
        (void)st;
        out.push_back(id);
    }
    return out;
}

const StreamEvidence &
EvidenceScanner::evidence(DeviceId device) const
{
    const auto it = streams_.find(device);
    panicIf(it == streams_.end(),
            "EvidenceScanner: unknown device (scan() first?)");
    return it->second.evidence;
}

void
EvidenceScanner::registerMetrics(obs::MetricsRegistry &registry,
                                 const std::string &prefix) const
{
    registry.counter(prefix + "passes",
                     [this] { return passes_; });
    registry.counter(prefix + "streamsScanned",
                     [this] { return total_.streamsScanned; });
    registry.counter(prefix + "segmentsVerified",
                     [this] { return total_.segmentsVerified; });
    registry.counter(prefix + "segmentsCached",
                     [this] { return total_.segmentsCached; });
    registry.counter(prefix + "bytesVerified",
                     [this] { return total_.bytesVerified; });
    registry.counter(prefix + "entriesReplayed",
                     [this] { return total_.entriesReplayed; });
}

} // namespace rssd::forensics
