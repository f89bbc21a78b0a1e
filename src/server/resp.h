// RESP2 wire protocol: an incremental, zero-copy request parser and the
// reply writers (DESIGN.md §13 "Serving layer").
//
// The parser consumes a connection's contiguous input buffer and yields
// one command per call as a vector of Slices *into that buffer* — no
// argument is ever copied. The slices stay valid until the buffer is
// compacted, which the connection does only after the tick's parsed
// commands have been executed and their replies buffered. A command split
// across reads simply returns kNeedMore until the missing bytes arrive
// (the connection re-parses from the command's start; commands are small,
// so the re-scan is cheaper than carrying parser state). Both framed
// ("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n") and inline ("GET k\r\n") requests
// are accepted, like Redis.
//
// Malformed input (bad type prefix, non-numeric or oversized lengths)
// never crashes: the parser reports kProtocolError with a Redis-style
// message; the connection sends it as an -ERR reply and closes.

#ifndef MONKEYDB_SERVER_RESP_H_
#define MONKEYDB_SERVER_RESP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/slice.h"

namespace monkeydb {

struct RespLimits {
  size_t max_bulk_bytes = 64u << 20;  // One argument's payload.
  size_t max_multibulk = 1u << 20;    // Elements of one command.
  size_t max_inline_bytes = 64u << 10;
};

class RespParser {
 public:
  enum class Result {
    kCommand,        // *args filled; *pos advanced past the command.
    kNeedMore,       // Incomplete frame; feed more bytes and retry.
    kProtocolError,  // Malformed; error() has the reply, close after.
  };

  explicit RespParser(const RespLimits& limits) : limits_(limits) {}
  RespParser() : RespParser(RespLimits{}) {}

  // Parses one command from [data + *pos, data + len). Empty frames
  // (bare "\r\n", "*0\r\n") are consumed and skipped internally. On
  // kCommand, *args holds at least one argument, each a Slice into
  // `data`.
  Result ParseOne(const char* data, size_t len, size_t* pos,
                  std::vector<Slice>* args);

  // Human-readable protocol violation, e.g.
  // "Protocol error: expected '$', got '+'". Valid after kProtocolError.
  const std::string& error() const { return error_; }

 private:
  Result Fail(const std::string& message) {
    error_ = "Protocol error: " + message;
    return Result::kProtocolError;
  }

  Result ParseMultibulk(const char* data, size_t len, size_t* pos,
                        std::vector<Slice>* args);
  Result ParseInline(const char* data, size_t len, size_t* pos,
                     std::vector<Slice>* args);

  RespLimits limits_;
  std::string error_;
};

// Reply writers: append one RESP value to `out` (a connection's output
// buffer). Callers compose arrays by writing the header and then each
// element.
namespace resp {

void AppendSimpleString(std::string* out, const Slice& s);  // +s\r\n
void AppendError(std::string* out, const Slice& msg);       // -msg\r\n
void AppendInteger(std::string* out, long long v);          // :v\r\n
void AppendBulk(std::string* out, const Slice& s);  // $len\r\ns\r\n
void AppendNull(std::string* out);                  // $-1\r\n
void AppendArrayHeader(std::string* out, size_t n);  // *n\r\n

}  // namespace resp

// Glob matcher for SCAN MATCH / CONFIG GET patterns: supports '*' (any
// run) and '?' (any byte); every other byte matches literally.
bool GlobMatch(const Slice& pattern, const Slice& str);

}  // namespace monkeydb

#endif  // MONKEYDB_SERVER_RESP_H_
