// rssd_lint fixture: chain-custody primitives referenced from a file
// that is not on the C1 allowlist. Re-anchoring lives ONLY in
// SegmentChainVerifier::resumeFrom and its blessed callers, and
// skipping the MAC ONLY where a verified-prefix record vouches for it.
// Deliberately bad — never compiled.

#include "log/chain_verify.hh"
#include "log/segment.hh"

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
sneakyOpen(log::SegmentChainVerifier &v, const log::SealedSegment &s,
           const log::SegmentCodec &codec)
{
    v.verifyNextAuthenticated(s, codec);                    // C1
    return codec.openVerified(s);                           // C1
}

} // namespace rssd::bad
