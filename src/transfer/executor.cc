#include "transfer/executor.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "hw/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pump::transfer {

namespace {

bool IsPush(TransferMethod method) {
  return TraitsOf(method).semantics == Semantics::kPush;
}

struct TransferMetrics {
  obs::Counter& chunks;
  obs::Counter& bytes;
  obs::Counter& retries;
  obs::Counter& faults_injected;
  obs::Counter& degraded_chunks;
  obs::Histogram& chunk_bytes;
};

TransferMetrics& Metrics() {
  static TransferMetrics metrics{
      obs::MetricsRegistry::Instance().GetCounter("transfer.chunks"),
      obs::MetricsRegistry::Instance().GetCounter("transfer.bytes"),
      obs::MetricsRegistry::Instance().GetCounter("transfer.retries"),
      obs::MetricsRegistry::Instance().GetCounter(
          "transfer.faults_injected"),
      obs::MetricsRegistry::Instance().GetCounter(
          "transfer.degraded_chunks"),
      obs::MetricsRegistry::Instance().GetHistogram(
          "transfer.chunk_bytes")};
  return metrics;
}

/// Runs one chunk's `work` under the fault options: checks the
/// `link.degrade` failpoint (observability only), then retries the
/// `transfer.chunk` (and, for UM methods, `um.migrate`) failpoints plus
/// `work` per the policy. `work` only runs on attempts whose injected
/// checks pass, so a retried chunk is re-executed from scratch.
/// `len`/`node` only feed the chunk's trace span and registry metrics
/// (bytes moved, modelled destination node).
Status RunChunk(const TransferFaultOptions& faults, bool um_site,
                std::uint64_t offset, std::uint64_t len,
                [[maybe_unused]] hw::MemoryNodeId node, TransferStats* stats,
                const std::function<Status()>& work) {
  PUMP_TRACE_SPAN(obs::TraceCategory::kTransfer, "transfer.chunk",
                  static_cast<double>(len), static_cast<double>(node));
  Metrics().chunks.Add();
  Metrics().bytes.Add(len);
  Metrics().chunk_bytes.Record(len);
  if (faults.injector == nullptr) return work();
  if (!faults.injector->Check(fault::kLinkDegrade).ok()) {
    ++stats->degraded_chunks;
    Metrics().degraded_chunks.Add();
  }
  fault::RetryStats retry_stats;
  const Status status = fault::RunWithRetry(
      faults.retry,
      [&]() -> Status {
        Status injected = faults.injector->Check(fault::kTransferChunk);
        if (injected.ok() && um_site) {
          injected = faults.injector->Check(fault::kUmMigrate);
        }
        if (!injected.ok()) {
          ++stats->faults_injected;
          Metrics().faults_injected.Add();
          return injected;
        }
        return work();
      },
      &retry_stats);
  stats->retries += retry_stats.retries;
  Metrics().retries.Add(retry_stats.retries);
  stats->modelled_backoff_s += retry_stats.backoff_s;
  if (status.ok()) return status;
  if (status.code() == StatusCode::kUnavailable) {
    return Status::Unavailable("transfer chunk at offset " +
                               std::to_string(offset) + " failed after " +
                               std::to_string(retry_stats.attempts) +
                               " attempts: " + status.message());
  }
  return status;
}

}  // namespace

Result<TransferStats> PullInPlace(
    std::uint64_t bytes, hw::MemoryNodeId gpu_node, std::uint64_t chunk_bytes,
    const TransferFaultOptions& faults,
    const std::function<void(std::uint64_t, std::uint64_t)>& on_chunk) {
  if (chunk_bytes == 0) {
    return Status::InvalidArgument("chunk size must be positive");
  }
  // The GPU dereferences CPU memory directly; no bytes land in GPU
  // memory. Each chunk of reads still crosses the interconnect, so the
  // chunk failpoint applies (a dropped read burst is retried
  // transparently).
  TransferStats stats;
  stats.direct_access = true;
  for (std::uint64_t offset = 0; offset < bytes; offset += chunk_bytes) {
    const std::uint64_t len = std::min(chunk_bytes, bytes - offset);
    PUMP_RETURN_NOT_OK(RunChunk(faults, /*um_site=*/false, offset, len,
                                gpu_node, &stats,
                                [] { return Status::OK(); }));
    ++stats.chunks;
    if (on_chunk) on_chunk(offset, len);
  }
  return stats;
}

Result<TransferStats> ExecuteTransfer(
    TransferMethod method, const memory::Buffer& src, memory::Buffer* dst,
    hw::MemoryNodeId gpu_node, std::uint64_t chunk_bytes,
    std::uint64_t os_page_bytes, memory::UnifiedRegion* um_region,
    const std::function<void(std::uint64_t, std::uint64_t)>& on_chunk,
    const TransferFaultOptions& faults) {
  if (!src.materialized()) {
    return Status::InvalidArgument("source buffer is not materialized");
  }
  if (chunk_bytes == 0) {
    return Status::InvalidArgument("chunk size must be positive");
  }
  if (os_page_bytes == 0) {
    return Status::InvalidArgument("OS page size must be positive");
  }
  const bool uses_um = method == TransferMethod::kUmPrefetch ||
                       method == TransferMethod::kUmMigration;
  if (uses_um && um_region == nullptr) {
    return Status::InvalidArgument(
        "Unified Memory methods require a UnifiedRegion");
  }
  if (uses_um && um_region->size() != src.size()) {
    return Status::InvalidArgument("UnifiedRegion size mismatch");
  }

  if (!IsPush(method) && method != TransferMethod::kUmMigration) {
    // Zero-Copy / Coherence: consumers read `src` in place.
    return PullInPlace(src.size(), gpu_node, chunk_bytes, faults, on_chunk);
  }

  TransferStats stats;

  if (method == TransferMethod::kUmMigration) {
    // Demand paging: every touched page migrates to the GPU node.
    for (std::uint64_t offset = 0; offset < src.size();
         offset += chunk_bytes) {
      const std::uint64_t len = std::min(chunk_bytes, src.size() - offset);
      PUMP_RETURN_NOT_OK(RunChunk(
          faults, /*um_site=*/true, offset, len, gpu_node, &stats,
          [&]() -> Status {
            for (std::uint64_t page_off = offset; page_off < offset + len;
                 page_off += os_page_bytes) {
              PUMP_ASSIGN_OR_RETURN(bool faulted,
                                    um_region->Touch(page_off, gpu_node));
              if (faulted) ++stats.pages_migrated;
            }
            return Status::OK();
          }));
      ++stats.chunks;
      if (on_chunk) on_chunk(offset, len);
    }
    stats.direct_access = true;
    return stats;
  }

  // Push-based methods copy into the destination buffer.
  if (dst == nullptr || !dst->materialized() || dst->size() < src.size()) {
    return Status::InvalidArgument(
        "push-based transfer requires a materialized destination of at "
        "least the source size");
  }

  std::vector<std::byte> staging;
  if (method == TransferMethod::kStagedCopy) staging.resize(chunk_bytes);

  for (std::uint64_t offset = 0; offset < src.size(); offset += chunk_bytes) {
    const std::uint64_t len = std::min(chunk_bytes, src.size() - offset);
    PUMP_RETURN_NOT_OK(RunChunk(
        faults, /*um_site=*/method == TransferMethod::kUmPrefetch, offset,
        len, gpu_node, &stats, [&]() -> Status {
          switch (method) {
            case TransferMethod::kStagedCopy:
              // Extra pass through the pinned staging buffer (Sec. 4.1).
              std::memcpy(staging.data(), src.data() + offset, len);
              std::memcpy(dst->data() + offset, staging.data(), len);
              stats.staged_bytes += len;
              break;
            case TransferMethod::kDynamicPinning:
              stats.pages_pinned += (len + os_page_bytes - 1) / os_page_bytes;
              std::memcpy(dst->data() + offset, src.data() + offset, len);
              break;
            case TransferMethod::kUmPrefetch: {
              PUMP_ASSIGN_OR_RETURN(std::uint64_t moved,
                                    um_region->Prefetch(offset, len,
                                                        gpu_node));
              stats.pages_migrated += moved;
              std::memcpy(dst->data() + offset, src.data() + offset, len);
              break;
            }
            case TransferMethod::kPageableCopy:
            case TransferMethod::kPinnedCopy:
              std::memcpy(dst->data() + offset, src.data() + offset, len);
              break;
            default:
              return Status::Internal("unexpected push method");
          }
          return Status::OK();
        }));
    stats.bytes_copied += len;
    ++stats.chunks;
    if (on_chunk) on_chunk(offset, len);
  }
  return stats;
}

Result<memory::Buffer> StageToDevice(const void* host, std::uint64_t bytes,
                                     hw::MemoryNodeId gpu_node,
                                     std::uint64_t chunk_bytes,
                                     std::uint64_t os_page_bytes,
                                     const TransferFaultOptions& faults,
                                     TransferStats* stats) {
  if (host == nullptr || bytes == 0) {
    return Status::InvalidArgument("nothing to stage");
  }
  memory::Buffer src(bytes, memory::MemoryKind::kPinned,
                     {memory::Extent{hw::kCpu0, bytes}});
  std::memcpy(src.data(), host, bytes);
  memory::Buffer dst(bytes, memory::MemoryKind::kDevice,
                     {memory::Extent{gpu_node, bytes}});
  PUMP_ASSIGN_OR_RETURN(
      TransferStats transfer_stats,
      ExecuteTransfer(TransferMethod::kPinnedCopy, src, &dst, gpu_node,
                      chunk_bytes, os_page_bytes, nullptr, {}, faults));
  if (stats != nullptr) {
    stats->bytes_copied += transfer_stats.bytes_copied;
    stats->chunks += transfer_stats.chunks;
    stats->staged_bytes += transfer_stats.staged_bytes;
    stats->retries += transfer_stats.retries;
    stats->faults_injected += transfer_stats.faults_injected;
    stats->degraded_chunks += transfer_stats.degraded_chunks;
    stats->modelled_backoff_s += transfer_stats.modelled_backoff_s;
  }
  return dst;
}

}  // namespace pump::transfer
