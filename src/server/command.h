// The RESP command table: name -> dispatch metadata. The executor
// (server.cc) groups consecutive commands of one class per connection per
// tick — reads coalesce into one DB::MultiGet, writes into one
// WriteBatch — so classification lives here, next to the names.

#ifndef MONKEYDB_SERVER_COMMAND_H_
#define MONKEYDB_SERVER_COMMAND_H_

#include "util/slice.h"

namespace monkeydb {

enum class CommandId {
  // Read class (batched into MultiGet).
  kGet,
  kMGet,
  kExists,
  // Write class (batched into one WriteBatch).
  kSet,
  kMSet,
  kDel,
  // Admin / inline class (executed one at a time, flushing any open
  // batch first so per-connection ordering is preserved).
  kScan,
  kPing,
  kEcho,
  kInfo,
  kConfig,
  kCommand,
  kSelect,
  kDbSize,
  kQuit,
  kShutdown,
  kSlowlog,
  kTrace,
};

enum class CommandClass { kRead, kWrite, kAdmin };

struct CommandSpec {
  CommandId id;
  const char* name;  // Canonical lower-case name.
  CommandClass cls;
  // Argument-count contract including the command name itself: total args
  // in [min_args, max_args] (max_args < 0 = unbounded). `step` > 1 adds a
  // congruence requirement ((nargs - min_args) % step == 0) — MSET's
  // key/value pairing.
  int min_args;
  int max_args;
  int step;
};

// Case-insensitive lookup; null for unknown commands.
const CommandSpec* LookupCommand(const Slice& name);

// Null when the count satisfies the spec, else the Redis-style complaint
// ("wrong number of arguments for 'get' command") to reply with.
const char* CheckArity(const CommandSpec& spec, size_t nargs);

}  // namespace monkeydb

#endif  // MONKEYDB_SERVER_COMMAND_H_
