// StoreServer: a thread-safe, high-QPS query front end for the durable
// store.
//
// Every query's result comes from one pinned store::Snapshot, so it sees
// one frozen, consistent view while the single writer keeps appending,
// sealing, and compacting underneath. (An aggregate whose columnar fast
// path declines scans a snapshot of its own; the declined path read no
// document.) Two ways in:
//
//   - Synchronous: search()/aggregate()/latest_value() run on the
//     calling thread. Safe to call from any number of threads at once.
//   - Asynchronous: submit_search()/submit_aggregate()/submit_latest()
//     enqueue the query onto a fixed pool of reader threads
//     (StoreServerConfig::reader_threads, the "serving" config section)
//     and return a std::future.
//
// The queries themselves are ps::Archiver's: the server holds a
// query-only Archiver over a StoreBackend of the store and forwards
// search, aggregate and latest_value to it, so results match an Archiver
// over the same store query for query. The server adds the reader pool
// and its own query counters.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "psonar/archiver.hpp"
#include "store/store.hpp"

namespace p4s::ps {

struct StoreServerConfig {
  /// Reader threads serving the async API. 0 = no pool; submit_* runs
  /// the query inline on the submitting thread (still snapshot-pinned).
  std::size_t reader_threads = 4;
};

struct StoreServerStats {
  std::uint64_t searches = 0;
  std::uint64_t aggregates = 0;
  std::uint64_t latest_queries = 0;
  /// Queries that went through the reader pool (subset of the above).
  std::uint64_t async_queries = 0;
  std::uint64_t reader_threads = 0;
};

class StoreServer {
 public:
  /// Non-owning: the store must outlive the server (MonitoringSystem
  /// owns both, store first).
  explicit StoreServer(store::Store& store, StoreServerConfig config = {});
  ~StoreServer();

  StoreServer(const StoreServer&) = delete;
  StoreServer& operator=(const StoreServer&) = delete;

  const StoreServerConfig& config() const { return config_; }

  // ---- synchronous API (any thread) -----------------------------------

  std::vector<util::Json> search(const std::string& index_name,
                                 const ArchiverQuery& query = {}) const;

  ArchiverAggregation aggregate(const std::string& index_name,
                                const std::string& field,
                                const ArchiverQuery& query = {}) const;

  /// See Archiver::latest_value.
  std::optional<util::Json> latest_value(const std::string& index_name,
                                         const std::string& field,
                                         const ArchiverQuery& query = {}) const;

  // ---- asynchronous API (reader pool) ---------------------------------

  std::future<std::vector<util::Json>> submit_search(
      const std::string& index_name, const ArchiverQuery& query = {}) const;

  std::future<ArchiverAggregation> submit_aggregate(
      const std::string& index_name, const std::string& field,
      const ArchiverQuery& query = {}) const;

  std::future<std::optional<util::Json>> submit_latest(
      const std::string& index_name, const std::string& field,
      const ArchiverQuery& query = {}) const;

  StoreServerStats stats() const;

 private:
  void worker_loop();
  void enqueue(std::function<void()> task) const;
  /// Run `query` on the reader pool; its result arrives in the future.
  template <typename Query>
  auto submit(Query query) const -> std::future<decltype(query())>;

  /// Query-only: the server never indexes through it.
  Archiver archiver_;
  StoreServerConfig config_;

  mutable std::atomic<std::uint64_t> searches_{0};
  mutable std::atomic<std::uint64_t> aggregates_{0};
  mutable std::atomic<std::uint64_t> latest_queries_{0};
  mutable std::atomic<std::uint64_t> async_queries_{0};

  mutable std::mutex queue_mu_;
  mutable std::condition_variable queue_cv_;
  mutable std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> readers_;
};

}  // namespace p4s::ps
