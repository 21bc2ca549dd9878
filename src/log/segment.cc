#include "log/segment.hh"

#include <cstring>

#include "compress/lz.hh"
#include "crypto/crc32.hh"
#include "log/endian.hh"
#include "sim/logging.hh"

namespace rssd::log {

namespace {

constexpr std::uint32_t kMagic = 0x52535347u; // "RSSG"

// Serialized layout sizes (little-endian, packed).
constexpr std::size_t kSegmentHeaderSize = 4 + 8 + 8 + 32 + 32 + 4 + 4;
constexpr std::size_t kEntryWireSize = LogEntry::kBodySize + 32 + 4;
constexpr std::size_t kPageFixedSize = 8 + 8 + 8 + 8 + 1 + 4;

/**
 * Cursor-based little-endian writer over a pre-sized buffer. The
 * caller sizes the buffer with Segment::serializedSize() once; every
 * field then lands with a fixed-size memcpy instead of per-byte
 * push_back.
 */
class Writer
{
  public:
    explicit Writer(std::uint8_t *p) : p_(p) {}

    void
    u32(std::uint32_t v)
    {
        storeLe32(p_, v);
        p_ += 4;
    }

    void
    u64(std::uint64_t v)
    {
        storeLe64(p_, v);
        p_ += 8;
    }

    void
    u8(std::uint8_t v)
    {
        *p_++ = v;
    }

    void
    bytes(const void *src, std::size_t n)
    {
        if (n > 0)
            std::memcpy(p_, src, n);
        p_ += n;
    }

    void
    digest(const crypto::Digest &d)
    {
        bytes(d.data(), d.size());
    }

    const std::uint8_t *cursor() const { return p_; }

  private:
    std::uint8_t *p_;
};

/** Bounds-checked little-endian reader with word-at-a-time loads. */
class Reader
{
  public:
    explicit Reader(const Bytes &data) : data_(data) {}

    std::uint32_t
    get32()
    {
        need(4);
        const std::uint32_t v = loadLe32(data_.data() + pos_);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    get64()
    {
        need(8);
        const std::uint64_t v = loadLe64(data_.data() + pos_);
        pos_ += 8;
        return v;
    }

    std::uint8_t
    get8()
    {
        need(1);
        return data_[pos_++];
    }

    crypto::Digest
    getDigest()
    {
        need(32);
        crypto::Digest d;
        std::memcpy(d.data(), data_.data() + pos_, 32);
        pos_ += 32;
        return d;
    }

    Bytes
    getBytes(std::size_t n)
    {
        need(n);
        Bytes b(data_.begin() + pos_, data_.begin() + pos_ + n);
        pos_ += n;
        return b;
    }

    bool atEnd() const { return pos_ == data_.size(); }

  private:
    void
    need(std::size_t n) const
    {
        // Subtract on the trusted side: pos_ <= size() always holds,
        // so a hostile length field cannot wrap the comparison the
        // way `pos_ + n > size()` could.
        panicIf(n > data_.size() - pos_, "segment: truncated field");
    }

    const Bytes &data_;
    std::size_t pos_ = 0;
};

} // namespace

std::size_t
Segment::serializedSize() const
{
    std::size_t total = kSegmentHeaderSize;
    total += entrySpan().size() * kEntryWireSize;
    total += pages.size() * kPageFixedSize;
    for (const PageRecord &p : pages)
        total += p.content.size();
    return total;
}

Bytes
Segment::serialize() const
{
    Bytes out(serializedSize());
    Writer w(out.data());

    const std::span<const LogEntry> ents = entrySpan();
    w.u32(kMagic);
    w.u64(id);
    w.u64(prevId);
    w.digest(chainAnchor);
    w.digest(chainTail);
    w.u32(static_cast<std::uint32_t>(ents.size()));
    w.u32(static_cast<std::uint32_t>(pages.size()));

    for (const LogEntry &e : ents) {
        const auto body = e.serializeBody();
        w.bytes(body.data(), body.size());
        w.digest(e.chain);
        // The float entropy rides separately from the quantized body
        // field so deserialization is lossless for analysis.
        std::uint32_t bits;
        static_assert(sizeof(bits) == sizeof(e.entropy));
        std::memcpy(&bits, &e.entropy, 4);
        w.u32(bits);
    }

    for (const PageRecord &p : pages) {
        w.u64(p.lpa);
        w.u64(p.dataSeq);
        w.u64(p.writtenAt);
        w.u64(p.invalidatedAt);
        w.u8(static_cast<std::uint8_t>(p.cause));
        w.u32(static_cast<std::uint32_t>(p.content.size()));
        w.bytes(p.content.data(), p.content.size());
    }
    panicIf(w.cursor() != out.data() + out.size(),
            "segment: serializedSize mismatch");
    return out;
}

Segment
Segment::deserialize(const Bytes &raw)
{
    Reader r(raw);
    panicIf(r.get32() != kMagic, "segment: bad magic");

    Segment seg;
    seg.id = r.get64();
    seg.prevId = r.get64();
    seg.chainAnchor = r.getDigest();
    seg.chainTail = r.getDigest();
    const std::uint32_t n_entries = r.get32();
    const std::uint32_t n_pages = r.get32();

    seg.entries.reserve(n_entries);
    for (std::uint32_t i = 0; i < n_entries; i++) {
        LogEntry e;
        e.logSeq = r.get64();
        e.op = static_cast<OpKind>(r.get8());
        e.lpa = r.get64();
        e.dataSeq = r.get64();
        e.prevDataSeq = r.get64();
        e.timestamp = r.get64();
        r.get32(); // quantized entropy inside the body; superseded below
        e.chain = r.getDigest();
        std::uint32_t bits = r.get32();
        std::memcpy(&e.entropy, &bits, 4);
        seg.entries.push_back(e);
    }

    seg.pages.reserve(n_pages);
    for (std::uint32_t i = 0; i < n_pages; i++) {
        PageRecord p;
        p.lpa = r.get64();
        p.dataSeq = r.get64();
        p.writtenAt = r.get64();
        p.invalidatedAt = r.get64();
        p.cause = static_cast<RetainCause>(r.get8());
        const std::uint32_t len = r.get32();
        p.content = r.getBytes(len);
        seg.pages.push_back(std::move(p));
    }
    panicIf(!r.atEnd(), "segment: trailing bytes");
    return seg;
}

SegmentCodec
SegmentCodec::fromSeed(const std::string &seed)
{
    return SegmentCodec(crypto::ChaCha20::deriveKey(seed));
}

SegmentCodec::Header
SegmentCodec::headerBytes(const SealedSegment &sealed) const
{
    Header h;
    Writer w(h.data());
    w.u64(sealed.id);
    w.u64(sealed.prevId);
    w.digest(sealed.chainAnchor);
    w.digest(sealed.chainTail);
    w.u64(sealed.rawSize);
    w.u64(sealed.payload.size());
    return h;
}

crypto::Digest
SegmentCodec::macOf(const SealedSegment &sealed) const
{
    // Copying the keyed schedule reuses the precomputed ipad/opad
    // states; header and payload stream through without ever being
    // concatenated into a scratch buffer.
    crypto::HmacSha256 mac = hmac_;
    const Header h = headerBytes(sealed);
    mac.update(h.data(), h.size());
    mac.update(sealed.payload.data(), sealed.payload.size());
    return mac.finish();
}

SealedSegment
SegmentCodec::seal(const Segment &segment) const
{
    SealedSegment sealed;
    sealed.id = segment.id;
    sealed.prevId = segment.prevId;
    sealed.chainTail = segment.chainTail;
    sealed.chainAnchor = segment.chainAnchor;

    const Bytes raw = segment.serialize();
    sealed.rawSize = raw.size();
    sealed.payload = compress::lzCompress(raw);
    crypto::ChaCha20 cipher(key_,
                            crypto::ChaCha20::nonceFromSequence(
                                segment.id));
    cipher.apply(sealed.payload);
    sealed.crc = crypto::crc32c(sealed.payload);
    sealed.hmac = macOf(sealed);
    return sealed;
}

bool
SegmentCodec::verify(const SealedSegment &sealed) const
{
    if (crypto::crc32c(sealed.payload) != sealed.crc)
        return false;
    return macOf(sealed) == sealed.hmac;
}

namespace {

/** Fixed-size authenticated body of a prune record. */
constexpr std::size_t kPruneBodySize = 6 * 8 + 32;

std::array<std::uint8_t, kPruneBodySize>
pruneBody(const PruneRecord &record)
{
    std::array<std::uint8_t, kPruneBodySize> body;
    Writer w(body.data());
    w.u64(record.stream);
    w.u64(record.upToId);
    w.u64(record.segmentsPruned);
    w.u64(record.entriesPruned);
    w.u64(record.bytesPruned);
    w.u64(record.prunedAt);
    w.digest(record.anchor);
    return body;
}

} // namespace

void
SegmentCodec::sealPrune(PruneRecord &record) const
{
    crypto::HmacSha256 mac = hmac_;
    const auto body = pruneBody(record);
    mac.update(body.data(), body.size());
    record.hmac = mac.finish();
}

bool
SegmentCodec::verifyPrune(const PruneRecord &record) const
{
    crypto::HmacSha256 mac = hmac_;
    const auto body = pruneBody(record);
    mac.update(body.data(), body.size());
    return mac.finish() == record.hmac;
}

Segment
SegmentCodec::open(const SealedSegment &sealed) const
{
    panicIf(!verify(sealed), "segment: HMAC/CRC verification failed");
    return openVerified(sealed);
}

Segment
SegmentCodec::openVerified(const SealedSegment &sealed) const
{
    // Decrypt on the fly: the keystream XOR reads the sealed payload
    // and writes the plaintext buffer in one pass, with no
    // copy-then-decrypt round trip.
    Bytes plain(sealed.payload.size());
    crypto::ChaCha20 cipher(key_,
                            crypto::ChaCha20::nonceFromSequence(
                                sealed.id));
    cipher.apply(sealed.payload.data(), plain.data(), plain.size());
    const Bytes raw = compress::lzDecompress(plain, sealed.rawSize);
    return Segment::deserialize(raw);
}

} // namespace rssd::log
