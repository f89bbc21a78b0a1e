#include "obs/metrics.h"

namespace monkeydb {

const char* HistName(Hist h) {
  switch (h) {
    case Hist::kGetLatency: return "get_latency_us";
    case Hist::kMultiGetLatency: return "multiget_latency_us";
    case Hist::kWriteLatency: return "write_latency_us";
    case Hist::kWriteQueueWait: return "write_queue_wait_us";
    case Hist::kWalWriteLatency: return "wal_write_latency_us";
    case Hist::kWalSyncLatency: return "wal_sync_latency_us";
    case Hist::kMemtableApplyLatency: return "memtable_apply_latency_us";
    case Hist::kIterSeekLatency: return "iter_seek_latency_us";
    case Hist::kIterNextLatency: return "iter_next_latency_us";
    case Hist::kFlushLatency: return "flush_latency_us";
    case Hist::kMergeLatency: return "merge_latency_us";
    case Hist::kSubcompactionLatency: return "subcompaction_latency_us";
    case Hist::kBlockCacheLookupLatency:
      return "block_cache_lookup_latency_us";
    case Hist::kBlockReadLatency: return "block_read_latency_us";
    case Hist::kWriteGroupSize: return "write_group_size";
    case Hist::kServerGetLatency: return "server_get_latency_us";
    case Hist::kServerSetLatency: return "server_set_latency_us";
    case Hist::kServerDelLatency: return "server_del_latency_us";
    case Hist::kServerMGetLatency: return "server_mget_latency_us";
    case Hist::kServerMSetLatency: return "server_mset_latency_us";
    case Hist::kServerScanLatency: return "server_scan_latency_us";
    case Hist::kServerOtherLatency: return "server_other_latency_us";
    case Hist::kServerPipelineDepth: return "server_pipeline_depth";
    case Hist::kNumHistograms: break;
  }
  return "unknown";
}

const char* TickName(Tick t) {
  switch (t) {
    case Tick::kListenerCallbacks: return "listener_callbacks";
    case Tick::kListenerFailures: return "listener_failures";
    case Tick::kLoggerRotations: return "logger_rotations";
    case Tick::kServerConnectionsAccepted:
      return "server_connections_accepted";
    case Tick::kServerConnectionsClosed: return "server_connections_closed";
    case Tick::kServerCommands: return "server_commands";
    case Tick::kServerProtocolErrors: return "server_protocol_errors";
    case Tick::kServerBackpressurePauses:
      return "server_backpressure_pauses";
    case Tick::kServerOverlimitCloses: return "server_overlimit_closes";
    case Tick::kServerHttpRequests: return "server_http_requests";
    case Tick::kNumTicks: break;
  }
  return "unknown";
}

MetricsRegistry::MetricsRegistry()
    : shards_(new ShardData[kNumShards]) {}

HistogramData MetricsRegistry::SnapshotHistogram(Hist h) const {
  HistogramMerger merger;
  MergeHistogram(h, &merger);
  return merger.Snapshot();
}

void MetricsRegistry::MergeHistogram(Hist h, HistogramMerger* merger) const {
  for (int s = 0; s < kNumShards; ++s) {
    merger->Add(shards_[s].hists[static_cast<int>(h)]);
  }
}

uint64_t MetricsRegistry::TickTotal(Tick t) const {
  uint64_t total = 0;
  for (int s = 0; s < kNumShards; ++s) {
    total += shards_[s].ticks[static_cast<int>(t)].load(
        std::memory_order_relaxed);
  }
  return total;
}

void MetricsRegistry::Reset() {
  for (int s = 0; s < kNumShards; ++s) {
    for (auto& h : shards_[s].hists) h.Reset();
    for (auto& t : shards_[s].ticks) t.store(0, std::memory_order_relaxed);
  }
}

}  // namespace monkeydb
