#include "log/chain_verify.hh"

namespace rssd::log {

const char *
chainFaultName(ChainFault f)
{
    switch (f) {
      case ChainFault::None: return "none";
      case ChainFault::BadAuthentication: return "bad-authentication";
      case ChainFault::BrokenOrder: return "broken-order";
      case ChainFault::BrokenAnchor: return "broken-anchor";
      case ChainFault::BrokenEntryChain: return "broken-entry-chain";
    }
    return "?";
}

bool
SegmentChainVerifier::resumeFrom(const PruneRecord &record,
                                 const SegmentCodec &codec)
{
    fault_ = ChainFault::None;
    if (!codec.verifyPrune(record)) {
        fault_ = ChainFault::BadAuthentication;
        return false;
    }
    expectPrev_ = record.upToId;
    tail_ = record.anchor;
    haveTail_ = true;
    return true;
}

bool
SegmentChainVerifier::verifyNext(const SealedSegment &sealed,
                                 const SegmentCodec &codec,
                                 Segment *opened_out)
{
    fault_ = ChainFault::None;

    if (!codec.verify(sealed)) {
        fault_ = ChainFault::BadAuthentication;
        return false;
    }
    if (sealed.prevId != expectPrev_) {
        fault_ = ChainFault::BrokenOrder;
        return false;
    }

    // The MAC just passed on these bytes: open without a second one.
    Segment seg = codec.openVerified(sealed);
    if (haveTail_ && seg.chainAnchor != tail_) {
        fault_ = ChainFault::BrokenAnchor;
        return false;
    }
    // Per-entry hash chain within the segment, and the advertised
    // tail must be the digest of the last entry.
    if (!OperationLog::verifyRun(seg.chainAnchor, seg.entries)) {
        fault_ = ChainFault::BrokenEntryChain;
        return false;
    }
    if (!seg.entries.empty() &&
        seg.entries.back().chain != seg.chainTail) {
        fault_ = ChainFault::BrokenEntryChain;
        return false;
    }

    expectPrev_ = sealed.id;
    tail_ = seg.chainTail;
    haveTail_ = true;
    count_++;
    bytes_ += sealed.wireSize();
    entries_ += seg.entries.size();
    if (opened_out)
        *opened_out = std::move(seg);
    return true;
}

} // namespace rssd::log
