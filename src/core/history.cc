#include "core/history.hh"

#include "sim/logging.hh"

namespace rssd::core {

DeviceHistory::DeviceHistory(RssdDevice &device)
    : device_(device)
{
    build(device.backupStore(), remote::kDefaultStream);
}

DeviceHistory::DeviceHistory(RssdDevice &device,
                             const remote::BackupCluster &cluster,
                             remote::DeviceId id)
    : device_(device)
{
    const remote::ShardId src = cluster.chainVerifyingReplicaOf(id);
    panicIf(src == remote::kNoShard,
            "DeviceHistory: no live replica holds the stream");
    sourceShard_ = src;
    build(cluster.shardStore(src), id);
}

void
DeviceHistory::build(const remote::BackupStore &store,
                     remote::StreamId stream)
{
    store_ = &store;
    stream_ = stream;
    RssdDevice &device = device_;
    VirtualClock &clock = device.clock();

    // Retention-GC horizon: entries before the first surviving
    // logSeq were expired remotely; the signed prune record is the
    // trusted statement of where history now begins.
    if (const log::PruneRecord *rec = store.pruneRecordOf(stream)) {
        pruned_ = true;
        horizonSeq_ = rec->entriesPruned;
    }

    // Fetch this device's sealed segments back over the
    // server->device direction of the link, in chain order, through
    // the store's one reader, which opens them with the codec the
    // out-of-band key exchange registered for this device. (In a
    // shared shard store only the device's own stream is fetched —
    // other tenants' evidence is neither needed nor decryptable with
    // this device's key.) A copy that does not verify is no history.
    Tick t = clock.now();
    segments_.reserve(store.streamSegments(stream).size());
    const bool verified = store.readStream(
        stream, 0,
        [&](const log::SealedSegment &sealed, log::Segment &opened) {
            t = device.link().rx().transmit(sealed.wireSize(), t);
            cost_.segmentsFetched++;
            cost_.bytesFetched += sealed.wireSize();
            segments_.push_back(std::move(opened));
        });
    panicIf(!verified, "DeviceHistory: stored evidence chain does not "
                       "verify");
    cost_.fetchCompleteAt = t;
    clock.advanceTo(t);

    // Merge entries: remote segments in id order, then the local tail.
    for (const log::Segment &seg : segments_) {
        for (const log::LogEntry &e : seg.entries)
            entries_.push_back(e);
    }
    for (const log::LogEntry &e : device.opLog().entries())
        entries_.push_back(e);

    for (std::uint32_t i = 0; i < entries_.size(); i++)
        indexEntry(i);

    // Version records: remote page records first...
    for (const log::Segment &seg : segments_) {
        for (const log::PageRecord &p : seg.pages) {
            VersionRecord v;
            v.lpa = p.lpa;
            v.dataSeq = p.dataSeq;
            v.source = VersionSource::RemoteSegment;
            v.remote = &p;
            versions_.emplace(p.dataSeq, v);
        }
    }
    // ...then pages still held locally (not yet offloaded)...
    const ftl::PageMappedFtl &ftl = device.ftl();
    for (const log::LogEntry &e : entries_) {
        if (e.op != log::OpKind::Write)
            continue;
        if (versions_.count(e.dataSeq))
            continue;
        const auto held =
            device.retention().findByDataSeq(e.dataSeq);
        if (held) {
            VersionRecord v;
            v.lpa = held->lpa;
            v.dataSeq = held->dataSeq;
            v.source = VersionSource::HeldOnDevice;
            v.ppa = held->ppa;
            versions_.emplace(v.dataSeq, v);
        }
    }
    // ...and finally the live mappings.
    for (flash::Lpa lpa = 0; lpa < ftl.logicalPages(); lpa++) {
        const flash::Ppa ppa = ftl.mappingOf(lpa);
        if (ppa == flash::kInvalidPpa)
            continue;
        const std::uint64_t seq = ftl.nand().oob(ppa).seq;
        if (versions_.count(seq))
            continue;
        VersionRecord v;
        v.lpa = lpa;
        v.dataSeq = seq;
        v.source = VersionSource::LiveOnDevice;
        v.ppa = ppa;
        versions_.emplace(seq, v);
    }
}

void
DeviceHistory::indexEntry(std::uint32_t idx)
{
    const log::LogEntry &e = entries_[idx];
    byLpa_[e.lpa].push_back(idx);
    if (e.op == log::OpKind::Write)
        entropyBySeq_[e.dataSeq] = e.entropy;
}

bool
DeviceHistory::verifyEvidenceChain() const
{
    // 1. Remote side: the store's chain walk of this device's stream
    //    (HMACs, segment ordering, per-entry chain; from the signed
    //    re-anchor record on a pruned stream). build() read the
    //    stream through the store's verified-prefix record, so an
    //    unchanged copy costs nothing here.
    if (!store_->verifyStreamChain(stream_))
        return false;
    const log::PruneRecord *prune = store_->pruneRecordOf(stream_);

    // 2. Local tail chain.
    if (!device_.opLog().verifyHeldChain())
        return false;

    // 3. Splice: the local tail's anchor must equal the last remote
    //    segment's chain tail — or, with no surviving segments, the
    //    prune record's anchor (everything offloaded was expired) /
    //    the genesis digest (nothing was ever offloaded).
    crypto::Digest expect_anchor;
    if (!segments_.empty())
        expect_anchor = segments_.back().chainTail;
    else if (prune)
        expect_anchor = prune->anchor;
    else
        expect_anchor = log::OperationLog::genesisDigest();
    return device_.opLog().anchorDigest() == expect_anchor;
}

const VersionRecord *
DeviceHistory::findVersion(std::uint64_t data_seq) const
{
    const auto it = versions_.find(data_seq);
    return it == versions_.end() ? nullptr : &it->second;
}

const std::vector<std::uint8_t> &
DeviceHistory::contentOf(const VersionRecord &version) const
{
    switch (version.source) {
      case VersionSource::RemoteSegment:
        return version.remote->content;
      case VersionSource::HeldOnDevice:
      case VersionSource::LiveOnDevice:
        return device_.ftl().nand().content(version.ppa);
    }
    return emptyContent_;
}

const std::vector<std::uint32_t> &
DeviceHistory::entriesFor(flash::Lpa lpa) const
{
    const auto it = byLpa_.find(lpa);
    return it == byLpa_.end() ? emptyIndex_ : it->second;
}

float
DeviceHistory::entropyOf(std::uint64_t data_seq) const
{
    const auto it = entropyBySeq_.find(data_seq);
    return it == entropyBySeq_.end() ? detect::kNoEntropy : it->second;
}

} // namespace rssd::core
