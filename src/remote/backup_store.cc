#include "remote/backup_store.hh"

#include <algorithm>
#include <set>

#include "sim/logging.hh"

namespace rssd::remote {

const char *
rejectReasonName(RejectReason r)
{
    switch (r) {
      case RejectReason::None: return "none";
      case RejectReason::BadAuthentication: return "bad-authentication";
      case RejectReason::ChainViolation: return "chain-violation";
      case RejectReason::CapacityExceeded: return "capacity-exceeded";
      case RejectReason::UnknownStream: return "unknown-stream";
    }
    return "?";
}

BackupStore::BackupStore(const BackupStoreConfig &config,
                         const log::SegmentCodec &codec)
    : config_(config)
{
    registerStream(kDefaultStream, codec);
}

BackupStore::BackupStore(const BackupStoreConfig &config)
    : config_(config)
{
}

void
BackupStore::registerStream(StreamId stream,
                            const log::SegmentCodec &codec)
{
    panicIf(streams_.count(stream) != 0,
            "BackupStore: stream already registered");
    streams_.emplace(stream, StreamState(codec));
}

bool
BackupStore::hasStream(StreamId stream) const
{
    return streams_.count(stream) != 0;
}

bool
BackupStore::reject(RejectReason why)
{
    lastReject_ = why;
    stats_.segmentsRejected++;
    return false;
}

bool
BackupStore::ingestSegment(const log::SealedSegment &segment,
                           Tick arrive_at, Tick &ack_ready_at)
{
    return ingestSegment(kDefaultStream, segment, arrive_at,
                         ack_ready_at);
}

bool
BackupStore::ingestSegment(StreamId stream,
                           const log::SealedSegment &segment,
                           Tick arrive_at, Tick &ack_ready_at)
{
    ack_ready_at = arrive_at + config_.processingTime;
    lastReject_ = RejectReason::None;

    auto it = streams_.find(stream);
    if (it == streams_.end())
        return reject(RejectReason::UnknownStream);
    StreamState &st = it->second;

    if (!st.codec.verify(segment))
        return reject(RejectReason::BadAuthentication);

    // Strict per-stream ordering: the segment must extend *this
    // stream's* history. "First" means no history at all — a fully
    // pruned stream keeps its chain tail, so the device's next
    // segment still extends it.
    // Replicated ingest re-offers a segment until the write quorum
    // acks it, so a replica that already stored the stream's tail
    // acks the re-offer without appending twice — idempotence is
    // what lets a partial quorum write converge on retry instead of
    // poisoning the chain with ChainViolation rejects.
    const bool first = st.lastId == log::kNoSegment;
    if (!first && st.haveTail && segment.id == st.lastId &&
        segment.chainTail == st.chainTail) {
        stats_.duplicateSegments++;
        return true;
    }
    if (first) {
        if (segment.prevId != log::kNoSegment)
            return reject(RejectReason::ChainViolation);
    } else {
        if (segment.prevId != st.lastId ||
            (st.haveTail && segment.chainAnchor != st.chainTail)) {
            return reject(RejectReason::ChainViolation);
        }
    }

    // Capacity accounting uses wire bytes (header + payload), the
    // same quantity the link transmits — so Figure 2's retention
    // time (capacity / ingest rate) matches what the wire carries.
    const std::uint64_t wire = segment.wireSize();
    if (config_.retention.gcEnabled) {
        expireByAge(arrive_at);
        const auto high = static_cast<std::uint64_t>(
            config_.retention.gcHighWater *
            static_cast<double>(config_.capacityBytes));
        if (used_ + wire > high || used_ + wire > config_.capacityBytes)
            evictUnderPressure(arrive_at, wire);
    }
    if (used_ + wire > config_.capacityBytes)
        return reject(RejectReason::CapacityExceeded);

    // Recycle a tombstoned slot when the GC left one — storage
    // stays bounded by the capacity budget, not by segments ever
    // ingested.
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        segments_[slot] = segment;
        segmentStream_[slot] = stream;
        segmentArrival_[slot] = arrive_at;
        segmentPruned_[slot] = 0;
    } else {
        slot = static_cast<std::uint32_t>(segments_.size());
        segments_.push_back(segment);
        segmentStream_.push_back(stream);
        segmentArrival_.push_back(arrive_at);
        segmentPruned_.push_back(0);
    }
    st.stored.push_back(slot);
    liveSegments_++;
    used_ += wire;
    st.liveBytes += wire;
    st.lastId = segment.id;
    st.chainTail = segment.chainTail;
    st.haveTail = true;

    stats_.segmentsAccepted++;
    stats_.bytesStored += wire;
    return true;
}

bool
BackupStore::pruneOldest(StreamId stream, StreamState &st, Tick now,
                         bool pressure)
{
    panicIf(st.stored.empty(), "BackupStore: prune of empty stream");
    const std::uint32_t idx = st.stored.front();
    const log::SealedSegment &sealed = segments_[idx];
    const std::uint64_t wire = sealed.wireSize();

    // The store-side GC work: open the segment to account the log
    // entries expiring with it (the prune record advertises the
    // first surviving logSeq to analysis and recovery). Inside the
    // verified prefix its MAC already passed on these bytes; outside
    // it, rotten bytes leave the stream unpruned for the scrub to
    // find.
    const bool covered = st.verifiedCount > 0;
    if (!covered && !st.codec.verify(sealed))
        return false;
    const log::Segment opened = st.codec.openVerified(sealed);

    log::PruneRecord rec =
        st.prune.value_or(log::PruneRecord{});
    rec.stream = stream;
    rec.upToId = sealed.id;
    rec.segmentsPruned += 1;
    rec.entriesPruned += opened.entries.size();
    rec.bytesPruned += wire;
    rec.prunedAt = now;
    rec.anchor = sealed.chainTail;
    st.codec.sealPrune(rec);
    st.prune = rec;

    // A record that covered the pruned segment still describes the
    // chain after its last covered survivor, one position earlier
    // now. One that did not vouched for nothing past the old anchor:
    // restart it from the new signed record.
    if (covered)
        st.verifiedCount--;
    else
        st.forgetVerified();

    st.stored.pop_front();
    st.liveBytes -= wire;
    used_ -= wire;
    liveSegments_--;
    segments_[idx] = log::SealedSegment{}; // free the payload
    segmentPruned_[idx] = 1;
    freeSlots_.push_back(idx);

    stats_.segmentsPruned++;
    stats_.bytesPruned += wire;
    stats_.entriesPruned += opened.entries.size();
    if (pressure)
        stats_.pressurePrunes++;
    else
        stats_.agePrunes++;
    if (trace_ != nullptr) {
        trace_->instant("retention", "prune", obs::kTrackCluster,
                        traceTid_, now,
                        {{"stream", stream},
                         {"segment", rec.upToId},
                         {"pressure", pressure ? 1u : 0u}});
    }
    return true;
}

void
BackupStore::expireByAge(Tick now)
{
    const Tick window = config_.retention.retentionWindow;
    if (window == 0)
        return;
    for (auto &[stream, st] : streams_) {
        if (st.evictionHold)
            continue; // suspicion hold: evidence outlives the window
        while (!st.stored.empty() &&
               segmentArrival_[st.stored.front()] + window <= now) {
            if (!pruneOldest(stream, st, now, /*pressure=*/false))
                break; // rotten front: left for the scrub to find
        }
    }
}

void
BackupStore::evictUnderPressure(Tick now,
                                std::uint64_t incoming_bytes)
{
    const auto low = static_cast<std::uint64_t>(
        config_.retention.gcLowWater *
        static_cast<double>(config_.capacityBytes));
    const std::uint64_t quota = streamQuotaBytes();
    // Streams whose oldest segment failed its MAC: passed over for
    // the rest of this call, so the loop still ends.
    std::set<StreamId> rotten;

    while (used_ + incoming_bytes > low) {
        StreamState *victim = nullptr;
        StreamId victim_id = 0;

        // 1. The most over-quota stream first — held or not. The
        //    quota is the backstop that keeps one flooding tenant
        //    from consuming its neighbours' retention windows.
        std::uint64_t best_over = 0;
        for (auto &[stream, st] : streams_) {
            if (st.stored.empty() || st.liveBytes <= quota ||
                rotten.count(stream) != 0) {
                continue;
            }
            const std::uint64_t over = st.liveBytes - quota;
            if (over > best_over) {
                best_over = over;
                victim = &st;
                victim_id = stream;
            }
        }

        // 2. Everyone under quota: globally oldest unheld segment.
        if (victim == nullptr) {
            Tick oldest = ~0ull;
            for (auto &[stream, st] : streams_) {
                if (st.evictionHold || st.stored.empty() ||
                    rotten.count(stream) != 0) {
                    continue;
                }
                const Tick at = segmentArrival_[st.stored.front()];
                if (at < oldest) {
                    oldest = at;
                    victim = &st;
                    victim_id = stream;
                }
            }
        }

        if (victim == nullptr)
            break; // all held and within quota: genuinely full
        if (!pruneOldest(victim_id, *victim, now, /*pressure=*/true))
            rotten.insert(victim_id);
    }
}

void
BackupStore::runRetentionGc(Tick now)
{
    if (!config_.retention.gcEnabled)
        return;
    expireByAge(now);
    const auto high = static_cast<std::uint64_t>(
        config_.retention.gcHighWater *
        static_cast<double>(config_.capacityBytes));
    if (used_ > high)
        evictUnderPressure(now, 0);
}

void
BackupStore::setEvictionHold(StreamId stream, bool held)
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    it->second.evictionHold = held;
}

bool
BackupStore::evictionHold(StreamId stream) const
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    return it->second.evictionHold;
}

std::uint64_t
BackupStore::heldStreams() const
{
    std::uint64_t n = 0;
    for (const auto &[stream, st] : streams_) {
        (void)stream;
        if (st.evictionHold)
            n++;
    }
    return n;
}

const log::PruneRecord *
BackupStore::pruneRecordOf(StreamId stream) const
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    return it->second.prune ? &*it->second.prune : nullptr;
}

std::uint64_t
BackupStore::prunedSegments(StreamId stream) const
{
    const log::PruneRecord *rec = pruneRecordOf(stream);
    return rec ? rec->segmentsPruned : 0;
}

std::uint64_t
BackupStore::streamLiveBytes(StreamId stream) const
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    return it->second.liveBytes;
}

std::uint64_t
BackupStore::streamQuotaBytes() const
{
    const double frac = config_.retention.streamQuotaFraction;
    if (frac <= 0.0 || streams_.empty())
        return ~0ull;
    return static_cast<std::uint64_t>(
        frac * static_cast<double>(config_.capacityBytes) /
        static_cast<double>(streams_.size()));
}

bool
BackupStore::segmentPruned(std::uint64_t idx) const
{
    panicIf(idx >= segmentPruned_.size(),
            "BackupStore: segment idx OOB");
    return segmentPruned_[idx] != 0;
}

const log::SealedSegment &
BackupStore::sealedSegment(std::uint64_t idx) const
{
    panicIf(idx >= segments_.size(), "BackupStore: segment idx OOB");
    panicIf(segmentPruned_[idx] != 0,
            "BackupStore: segment expired by retention GC");
    return segments_[idx];
}

StreamId
BackupStore::streamOf(std::uint64_t idx) const
{
    panicIf(idx >= segmentStream_.size(),
            "BackupStore: segment idx OOB");
    return segmentStream_[idx];
}

const std::deque<std::uint32_t> &
BackupStore::streamSegments(StreamId stream) const
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    return it->second.stored;
}

log::Segment
BackupStore::openSegment(std::uint64_t idx) const
{
    auto it = streams_.find(streamOf(idx));
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    return it->second.codec.open(sealedSegment(idx));
}

std::vector<StreamId>
BackupStore::streamIds() const
{
    std::vector<StreamId> ids;
    ids.reserve(streams_.size());
    for (const auto &[stream, st] : streams_) {
        (void)st;
        ids.push_back(stream);
    }
    return ids;
}

const log::SegmentCodec &
BackupStore::streamCodec(StreamId stream) const
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    return it->second.codec;
}

bool
BackupStore::readStream(StreamId stream, std::uint64_t from,
                        const SegmentVisitor &visit) const
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    const StreamState &st = it->second;
    st.fault = log::ChainFault::None;

    if (!st.verified) {
        log::SegmentChainVerifier fresh;
        // A pruned stream verifies from its signed re-anchor record
        // instead of genesis; the record substitutes for the
        // expired prefix.
        if (st.prune && !fresh.resumeFrom(*st.prune, st.codec)) {
            st.fault = fresh.fault();
            return false;
        }
        st.verified = fresh;
    }
    // Inside the record only decrypt, and only for a visitor. Past
    // it, extend the record; a failure leaves it at the last good
    // segment, so the next read reports the same fault.
    std::uint64_t pos =
        visit ? std::min(from, st.verifiedCount) : st.verifiedCount;
    for (; pos < st.stored.size(); pos++) {
        const log::SealedSegment &sealed = segments_[st.stored[pos]];
        log::Segment opened;
        if (pos < st.verifiedCount) {
            opened = st.codec.openVerified(sealed);
        } else {
            stats_.segmentsChainWalked++;
            if (!st.verified->verifyNext(sealed, st.codec, &opened)) {
                st.fault = st.verified->fault();
                return false;
            }
            st.verifiedCount++;
        }
        if (visit && pos >= from)
            visit(sealed, opened);
    }
    return true;
}

bool
BackupStore::verifyStreamChain(StreamId stream) const
{
    return readStream(stream, 0, nullptr);
}

log::ChainFault
BackupStore::chainFault(StreamId stream) const
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    return it->second.fault;
}

std::uint64_t
BackupStore::verifiedPrefix(StreamId stream) const
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    return it->second.verifiedCount;
}

bool
BackupStore::verifyFullChain() const
{
    for (const auto &[stream, st] : streams_) {
        (void)st;
        if (!verifyStreamChain(stream))
            return false;
    }
    return true;
}

void
BackupStore::adoptPruneRecord(StreamId stream,
                              const log::PruneRecord &record)
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    StreamState &st = it->second;
    panicIf(st.lastId != log::kNoSegment || st.prune.has_value(),
            "BackupStore: prune adoption on a stream with history");
    panicIf(record.stream != stream,
            "BackupStore: prune record names another stream");
    panicIf(!st.codec.verifyPrune(record),
            "BackupStore: prune record signature mismatch");
    st.prune = record;
    st.forgetVerified(); // anchored at genesis until now
    st.lastId = record.upToId;
    st.chainTail = record.anchor;
    st.haveTail = true;
}

void
BackupStore::releaseStream(StreamId stream)
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    StreamState &st = it->second;
    for (const std::uint32_t idx : st.stored) {
        const std::uint64_t wire = segments_[idx].wireSize();
        used_ -= wire;
        liveSegments_--;
        segments_[idx] = log::SealedSegment{};
        segmentPruned_[idx] = 1;
        freeSlots_.push_back(idx);
    }
    streams_.erase(it);
}

BackupStore::StreamTail
BackupStore::streamTail(StreamId stream) const
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    StreamTail t;
    t.lastId = it->second.lastId;
    t.chainTail = it->second.chainTail;
    t.haveTail = it->second.haveTail;
    return t;
}

void
BackupStore::injectBitRot(StreamId stream, std::uint64_t k,
                          std::size_t first_byte,
                          std::size_t byte_count)
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    StreamState &st = it->second;
    panicIf(k >= st.stored.size(),
            "BackupStore: bit-rot index past stream");
    log::SealedSegment &sealed = segments_[st.stored[k]];
    panicIf(sealed.payload.empty(),
            "BackupStore: bit-rot on an empty payload");
    const std::size_t first =
        first_byte < sealed.payload.size() ? first_byte
                                           : sealed.payload.size() - 1;
    const std::size_t last =
        first + byte_count < sealed.payload.size()
            ? first + byte_count
            : sealed.payload.size();
    for (std::size_t i = first; i < last; i++)
        sealed.payload[i] ^= 0x5A;
    st.forgetVerified();
}

void
BackupStore::setQuarantined(StreamId stream, bool quarantined)
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    it->second.quarantined = quarantined;
}

bool
BackupStore::quarantined(StreamId stream) const
{
    auto it = streams_.find(stream);
    panicIf(it == streams_.end(), "BackupStore: unknown stream");
    return it->second.quarantined;
}

std::uint64_t
BackupStore::quarantinedStreams() const
{
    std::uint64_t n = 0;
    for (const auto &[stream, st] : streams_) {
        (void)stream;
        if (st.quarantined)
            n++;
    }
    return n;
}

} // namespace rssd::remote
