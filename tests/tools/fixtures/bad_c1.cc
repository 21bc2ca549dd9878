// rssd_lint fixture: chain-custody primitives referenced from a file
// that is not on the C1 allowlist. Re-anchoring lives ONLY in
// SegmentChainVerifier::resumeFrom and its blessed callers, skipping
// the MAC ONLY in the codec, the verifier and the store's one reader
// of stored evidence, and corrupting stored evidence ONLY in the
// store and the fleet's scripted-fault actor.
// Deliberately bad — never compiled.

#include "log/chain_verify.hh"
#include "log/segment.hh"
#include "remote/backup_cluster.hh"

namespace rssd::bad {

bool
sneakyReanchor(log::SegmentChainVerifier &v,
               const log::PruneRecord &rec,
               const log::SegmentCodec &codec)
{
    if (!codec.verifyPrune(rec))                            // C1
        return false;
    return v.resumeFrom(rec, codec);                        // C1
}

log::Segment
sneakyOpen(const log::SealedSegment &s, const log::SegmentCodec &codec)
{
    return codec.openVerified(s);                           // C1
}

void
sneakyRot(remote::BackupCluster &cluster)
{
    remote::BackupStore &store = cluster.mutableShardStore(0); // C1
    store.injectBitRot(0, 1, 7, 5);                         // C1
}

} // namespace rssd::bad
