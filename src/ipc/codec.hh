/**
 * @file
 * RPC value model and wire codec. Framework API arguments and return
 * values are marshalled as tagged Values. A Blob carries the full
 * bytes of a data object (eager copy); a Ref carries only an object
 * reference — the Lazy Data Copy optimization (§4.3.2) — consisting of
 * the owning partition and a buffer identifier, matching the paper's
 * "agent process's PID and the identifier of the buffer".
 *
 * One wire framing exists: a batch frame holding one or more bodies
 * under ONE shared trailer ([u32 count][(u32 len, body)...][u64 wide
 * checksum]), so a burst of messages pays a single checksum and a
 * single ring publish. Encoding targets a ByteSink so the bytes can
 * stream straight into ring storage (no staging vector). Decoding
 * rejects any message kind but Request, Response and Deliver.
 */

#ifndef FREEPART_IPC_CODEC_HH
#define FREEPART_IPC_CODEC_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace freepart::ipc {

/**
 * Reference to a data object living in some partition's object table
 * (the LDC wire representation).
 */
struct ObjectRef {
    uint32_t ownerPartition = 0; //!< partition currently holding data
    uint64_t objectId = 0;       //!< identifier within the object table

    bool
    operator==(const ObjectRef &o) const
    {
        return ownerPartition == o.ownerPartition &&
               objectId == o.objectId;
    }
};

/** A marshallable RPC value. */
class Value
{
  public:
    /** Wire tags. */
    enum class Kind : uint8_t {
        None = 0,
        U64,
        I64,
        F64,
        Str,
        Blob,
        Ref,
    };

    Value() : payload(std::monostate{}) {}
    explicit Value(uint64_t v) : payload(v) {}
    explicit Value(int64_t v) : payload(v) {}
    explicit Value(double v) : payload(v) {}
    explicit Value(std::string v) : payload(std::move(v)) {}
    explicit Value(std::vector<uint8_t> v) : payload(std::move(v)) {}
    explicit Value(ObjectRef v) : payload(v) {}

    Kind kind() const;

    bool isNone() const { return kind() == Kind::None; }

    uint64_t asU64() const;
    int64_t asI64() const;
    double asF64() const;
    const std::string &asStr() const;
    const std::vector<uint8_t> &asBlob() const;
    const ObjectRef &asRef() const;

    /** Exact encoded size in bytes (tag + payload). */
    size_t wireSize() const;

  private:
    std::variant<std::monostate, uint64_t, int64_t, double,
                 std::string, std::vector<uint8_t>, ObjectRef>
        payload;
};

/** A list of RPC argument/return values. */
using ValueList = std::vector<Value>;

/** RPC message kinds (the only bytes a decoder accepts). */
enum class MsgKind : uint8_t {
    Request = 1,   //!< host -> agent: execute API
    Response = 2,  //!< agent -> host: results
    Deliver = 6,   //!< object bytes piggybacked on a request batch
                   //!< (the LDC fetch riding the same round trip)
};

/** Decoded RPC message. */
struct Message {
    MsgKind kind = MsgKind::Request;
    uint64_t seq = 0;    //!< sequence number (exactly-once dedup)
    uint32_t apiId = 0;  //!< target API (requests only)
    uint32_t status = 0; //!< 0 = ok (responses only)
    ValueList values;    //!< arguments or results
};

/**
 * Abstract byte output for the encoder. Lets the same encode path
 * fill a std::vector or write straight into SpscRing storage.
 */
class ByteSink
{
  public:
    virtual void append(const void *bytes, size_t len) = 0;

  protected:
    ~ByteSink() = default;
};

/** ByteSink over a std::vector (the staging-buffer path). */
class VectorSink final : public ByteSink
{
  public:
    explicit VectorSink(std::vector<uint8_t> &out) : out(out) {}

    void
    append(const void *bytes, size_t len) override
    {
        const auto *b = static_cast<const uint8_t *>(bytes);
        out.insert(out.end(), b, b + len);
    }

  private:
    std::vector<uint8_t> &out;
};

/** Exact encoded size of a message body (header + values, no
 *  trailer). encodeMessageBodyTo emits exactly this many bytes. */
size_t messageBodySize(const Message &msg);

/** Stream a message body (no trailer) into a sink. */
void encodeMessageBodyTo(ByteSink &sink, const Message &msg);

/** Parse a bare message body; throws on malformed input or an
 *  unknown message kind. */
Message decodeMessageBody(const uint8_t *data, size_t len);

/** Exact encoded size of a batch frame for these messages. */
size_t batchWireSize(const std::vector<Message> &msgs);

/** Stream a batch frame (count, bodies, shared trailer) into a
 *  sink. */
void encodeBatchTo(ByteSink &sink, const std::vector<Message> &msgs);

/** Serialize a batch frame to a staging vector (tests, accounting). */
std::vector<uint8_t> encodeBatch(const std::vector<Message> &msgs);

/** Parse a batch frame; verifies the shared trailer first, throws on
 *  any corruption (the whole batch is rejected as one unit). The bytes
 *  are read in place, so they must not change while this runs. */
std::vector<Message> decodeBatch(const uint8_t *wire, size_t len);

/** decodeBatch over a staging vector. */
std::vector<Message> decodeBatch(const std::vector<uint8_t> &wire);

} // namespace freepart::ipc

#endif // FREEPART_IPC_CODEC_HH
