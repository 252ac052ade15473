#include "ipc/codec.hh"

#include <cstring>

#include "util/checksum.hh"
#include "util/logging.hh"

namespace freepart::ipc {

Value::Kind
Value::kind() const
{
    return static_cast<Kind>(payload.index());
}

uint64_t
Value::asU64() const
{
    if (auto *v = std::get_if<uint64_t>(&payload))
        return *v;
    if (auto *v = std::get_if<int64_t>(&payload))
        return static_cast<uint64_t>(*v);
    util::panic("Value::asU64 on kind %d", static_cast<int>(kind()));
}

int64_t
Value::asI64() const
{
    if (auto *v = std::get_if<int64_t>(&payload))
        return *v;
    if (auto *v = std::get_if<uint64_t>(&payload))
        return static_cast<int64_t>(*v);
    util::panic("Value::asI64 on kind %d", static_cast<int>(kind()));
}

double
Value::asF64() const
{
    if (auto *v = std::get_if<double>(&payload))
        return *v;
    util::panic("Value::asF64 on kind %d", static_cast<int>(kind()));
}

const std::string &
Value::asStr() const
{
    if (auto *v = std::get_if<std::string>(&payload))
        return *v;
    util::panic("Value::asStr on kind %d", static_cast<int>(kind()));
}

const std::vector<uint8_t> &
Value::asBlob() const
{
    if (auto *v = std::get_if<std::vector<uint8_t>>(&payload))
        return *v;
    util::panic("Value::asBlob on kind %d", static_cast<int>(kind()));
}

const ObjectRef &
Value::asRef() const
{
    if (auto *v = std::get_if<ObjectRef>(&payload))
        return *v;
    util::panic("Value::asRef on kind %d", static_cast<int>(kind()));
}

size_t
Value::wireSize() const
{
    switch (kind()) {
      case Kind::None:
        return 1;
      case Kind::U64:
      case Kind::I64:
      case Kind::F64:
        return 1 + 8;
      case Kind::Str:
        return 1 + 4 + asStr().size();
      case Kind::Blob:
        return 1 + 4 + asBlob().size();
      case Kind::Ref:
        return 1 + 12;
    }
    return 1;
}

namespace {

/** Fixed bytes of a message body before its values. */
constexpr size_t kMsgHeaderBytes = 1 + 8 + 4 + 4 + 4;

/** Fixed bytes of a batch frame around its entries. */
constexpr size_t kBatchCountBytes = sizeof(uint32_t);
constexpr size_t kBatchTrailerBytes = sizeof(uint64_t);

/** Typed little helpers over a ByteSink. */
class Writer
{
  public:
    explicit Writer(ByteSink &sink) : sink(sink) {}

    void
    u8(uint8_t v)
    {
        sink.append(&v, sizeof(v));
    }

    void
    u32(uint32_t v)
    {
        sink.append(&v, sizeof(v));
    }

    void
    u64(uint64_t v)
    {
        sink.append(&v, sizeof(v));
    }

    void
    f64(double v)
    {
        sink.append(&v, sizeof(v));
    }

    void
    bytes(const void *p, size_t n)
    {
        sink.append(p, n);
    }

  private:
    ByteSink &sink;
};

/**
 * Forwarding sink that folds every byte into a WideChecksum so a
 * batch trailer is computed while the frame streams into ring storage
 * — the producer never reads back what it wrote to shared memory.
 */
class ChecksumSink final : public ByteSink
{
  public:
    explicit ChecksumSink(ByteSink &inner) : inner(inner) {}

    void
    append(const void *bytes, size_t len) override
    {
        checksum.update(bytes, len);
        inner.append(bytes, len);
    }

    uint64_t sum() const { return checksum.digest(); }

  private:
    ByteSink &inner;
    util::WideChecksum checksum;
};

class Reader
{
  public:
    /** Read [0, limit) of a raw buffer. */
    Reader(const uint8_t *b, size_t limit) : buf(b), limit(limit) {}

    uint8_t
    u8()
    {
        need(1);
        return buf[pos++];
    }

    uint32_t
    u32()
    {
        uint32_t v;
        take(&v, sizeof(v));
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v;
        take(&v, sizeof(v));
        return v;
    }

    double
    f64()
    {
        double v;
        take(&v, sizeof(v));
        return v;
    }

    std::vector<uint8_t>
    blob(size_t n)
    {
        need(n);
        std::vector<uint8_t> out(buf + pos, buf + pos + n);
        pos += n;
        return out;
    }

    void
    skip(size_t n)
    {
        need(n);
        pos += n;
    }

    bool
    done() const
    {
        return pos == limit;
    }

  private:
    void
    need(size_t n)
    {
        if (pos + n > limit)
            util::fatal("codec: truncated message (need %zu at %zu/%zu)",
                        n, pos, limit);
    }

    void
    take(void *p, size_t n)
    {
        need(n);
        std::memcpy(p, buf + pos, n);
        pos += n;
    }

    const uint8_t *buf;
    size_t limit;
    size_t pos = 0;
};

void
encodeValue(Writer &w, const Value &v)
{
    w.u8(static_cast<uint8_t>(v.kind()));
    switch (v.kind()) {
      case Value::Kind::None:
        break;
      case Value::Kind::U64:
        w.u64(v.asU64());
        break;
      case Value::Kind::I64:
        w.u64(static_cast<uint64_t>(v.asI64()));
        break;
      case Value::Kind::F64:
        w.f64(v.asF64());
        break;
      case Value::Kind::Str: {
        const std::string &s = v.asStr();
        w.u32(static_cast<uint32_t>(s.size()));
        w.bytes(s.data(), s.size());
        break;
      }
      case Value::Kind::Blob: {
        const auto &b = v.asBlob();
        w.u32(static_cast<uint32_t>(b.size()));
        w.bytes(b.data(), b.size());
        break;
      }
      case Value::Kind::Ref: {
        const ObjectRef &r = v.asRef();
        w.u32(r.ownerPartition);
        w.u64(r.objectId);
        break;
      }
    }
}

Value
decodeValue(Reader &r)
{
    auto kind = static_cast<Value::Kind>(r.u8());
    switch (kind) {
      case Value::Kind::None:
        return Value();
      case Value::Kind::U64:
        return Value(r.u64());
      case Value::Kind::I64:
        return Value(static_cast<int64_t>(r.u64()));
      case Value::Kind::F64:
        return Value(r.f64());
      case Value::Kind::Str: {
        uint32_t n = r.u32();
        auto bytes = r.blob(n);
        return Value(std::string(bytes.begin(), bytes.end()));
      }
      case Value::Kind::Blob: {
        uint32_t n = r.u32();
        return Value(r.blob(n));
      }
      case Value::Kind::Ref: {
        ObjectRef ref;
        ref.ownerPartition = r.u32();
        ref.objectId = r.u64();
        return Value(ref);
      }
    }
    util::fatal("codec: bad value tag %d", static_cast<int>(kind));
}

} // namespace

size_t
messageBodySize(const Message &msg)
{
    size_t size = kMsgHeaderBytes;
    for (const Value &v : msg.values)
        size += v.wireSize();
    return size;
}

void
encodeMessageBodyTo(ByteSink &sink, const Message &msg)
{
    Writer w(sink);
    w.u8(static_cast<uint8_t>(msg.kind));
    w.u64(msg.seq);
    w.u32(msg.apiId);
    w.u32(msg.status);
    w.u32(static_cast<uint32_t>(msg.values.size()));
    for (const Value &v : msg.values)
        encodeValue(w, v);
}

Message
decodeMessageBody(const uint8_t *data, size_t len)
{
    Reader r(data, len);
    Message msg;
    msg.kind = static_cast<MsgKind>(r.u8());
    if (msg.kind != MsgKind::Request && msg.kind != MsgKind::Response &&
        msg.kind != MsgKind::Deliver)
        util::fatal("codec: unknown message kind %d",
                    static_cast<int>(msg.kind));
    msg.seq = r.u64();
    msg.apiId = r.u32();
    msg.status = r.u32();
    uint32_t count = r.u32();
    // A corrupted count must not drive a giant reserve; each value
    // needs at least one wire byte, so anything larger is malformed.
    if (count > len)
        util::fatal("codec: value count %u exceeds body size %zu",
                    count, len);
    msg.values.reserve(count);
    for (uint32_t i = 0; i < count; ++i)
        msg.values.push_back(decodeValue(r));
    if (!r.done())
        util::fatal("codec: trailing bytes in message");
    return msg;
}

size_t
batchWireSize(const std::vector<Message> &msgs)
{
    size_t size = kBatchCountBytes + kBatchTrailerBytes;
    for (const Message &msg : msgs)
        size += sizeof(uint32_t) + messageBodySize(msg);
    return size;
}

void
encodeBatchTo(ByteSink &sink, const std::vector<Message> &msgs)
{
    // One shared trailer covers the count word, every length prefix,
    // and every body — computed while the bytes stream through, so
    // the zero-copy ring path never re-reads what it wrote.
    ChecksumSink checked(sink);
    Writer w(checked);
    w.u32(static_cast<uint32_t>(msgs.size()));
    for (const Message &msg : msgs) {
        w.u32(static_cast<uint32_t>(messageBodySize(msg)));
        encodeMessageBodyTo(checked, msg);
    }
    uint64_t sum = checked.sum();
    Writer trailer(sink);
    trailer.u64(sum);
}

std::vector<uint8_t>
encodeBatch(const std::vector<Message> &msgs)
{
    std::vector<uint8_t> wire;
    wire.reserve(batchWireSize(msgs));
    VectorSink sink(wire);
    encodeBatchTo(sink, msgs);
    return wire;
}

std::vector<Message>
decodeBatch(const uint8_t *wire, size_t len)
{
    if (len < kBatchCountBytes + kBatchTrailerBytes)
        util::fatal("codec: batch frame shorter than its framing");
    size_t body = len - kBatchTrailerBytes;
    uint64_t expected;
    std::memcpy(&expected, wire + body, sizeof(expected));
    if (util::wideChecksum(wire, body) != expected)
        util::fatal("codec: batch checksum mismatch on %zu-byte frame",
                    len);
    Reader r(wire, body);
    uint32_t count = r.u32();
    if (count > len)
        util::fatal("codec: batch count %u exceeds frame size %zu",
                    count, len);
    std::vector<Message> msgs;
    msgs.reserve(count);
    size_t pos = kBatchCountBytes;
    for (uint32_t i = 0; i < count; ++i) {
        uint32_t entry = r.u32();
        pos += sizeof(uint32_t);
        if (pos + entry > body)
            util::fatal("codec: batch entry %u overruns frame", i);
        msgs.push_back(decodeMessageBody(wire + pos, entry));
        pos += entry;
        r.skip(entry); // keep the reader in lockstep for done()
    }
    if (!r.done())
        util::fatal("codec: trailing bytes in batch frame");
    return msgs;
}

std::vector<Message>
decodeBatch(const std::vector<uint8_t> &wire)
{
    return decodeBatch(wire.data(), wire.size());
}

} // namespace freepart::ipc
