#include "psonar/store_server.hpp"

#include "psonar/store_backend.hpp"

namespace p4s::ps {

StoreServer::StoreServer(store::Store& store, StoreServerConfig config)
    : archiver_(std::make_unique<StoreBackend>(store)), config_(config) {
  readers_.reserve(config_.reader_threads);
  for (std::size_t i = 0; i < config_.reader_threads; ++i) {
    readers_.emplace_back([this] { worker_loop(); });
  }
}

StoreServer::~StoreServer() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& reader : readers_) reader.join();
}

void StoreServer::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void StoreServer::enqueue(std::function<void()> task) const {
  async_queries_.fetch_add(1, std::memory_order_relaxed);
  if (readers_.empty()) {
    // No pool configured: run inline, still snapshot-pinned.
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(std::move(task));
  }
  queue_cv_.notify_one();
}

template <typename Query>
auto StoreServer::submit(Query query) const
    -> std::future<decltype(query())> {
  auto task = std::make_shared<std::packaged_task<decltype(query())()>>(
      std::move(query));
  auto future = task->get_future();
  enqueue([task] { (*task)(); });
  return future;
}

std::vector<util::Json> StoreServer::search(const std::string& index_name,
                                            const ArchiverQuery& query) const {
  searches_.fetch_add(1, std::memory_order_relaxed);
  return archiver_.search(index_name, query);
}

ArchiverAggregation StoreServer::aggregate(const std::string& index_name,
                                           const std::string& field,
                                           const ArchiverQuery& query) const {
  aggregates_.fetch_add(1, std::memory_order_relaxed);
  return archiver_.aggregate(index_name, field, query);
}

std::optional<util::Json> StoreServer::latest_value(
    const std::string& index_name, const std::string& field,
    const ArchiverQuery& query) const {
  latest_queries_.fetch_add(1, std::memory_order_relaxed);
  return archiver_.latest_value(index_name, field, query);
}

std::future<std::vector<util::Json>> StoreServer::submit_search(
    const std::string& index_name, const ArchiverQuery& query) const {
  return submit(
      [this, index_name, query] { return search(index_name, query); });
}

std::future<ArchiverAggregation> StoreServer::submit_aggregate(
    const std::string& index_name, const std::string& field,
    const ArchiverQuery& query) const {
  return submit([this, index_name, field, query] {
    return aggregate(index_name, field, query);
  });
}

std::future<std::optional<util::Json>> StoreServer::submit_latest(
    const std::string& index_name, const std::string& field,
    const ArchiverQuery& query) const {
  return submit([this, index_name, field, query] {
    return latest_value(index_name, field, query);
  });
}

StoreServerStats StoreServer::stats() const {
  StoreServerStats out;
  out.searches = searches_.load(std::memory_order_relaxed);
  out.aggregates = aggregates_.load(std::memory_order_relaxed);
  out.latest_queries = latest_queries_.load(std::memory_order_relaxed);
  out.async_queries = async_queries_.load(std::memory_order_relaxed);
  out.reader_threads = readers_.size();
  return out;
}

}  // namespace p4s::ps
