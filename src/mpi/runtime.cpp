#include "mpi/runtime.hpp"

#include "common/logging.hpp"
#include "common/thread_cache.hpp"

namespace pg::mpi {

AppRegistry& AppRegistry::instance() {
  static AppRegistry registry;
  return registry;
}

void AppRegistry::register_app(const std::string& name, AppFn fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  apps_[name] = std::move(fn);
}

Result<AppFn> AppRegistry::lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = apps_.find(name);
  if (it == apps_.end())
    return error(ErrorCode::kNotFound, "no application named " + name);
  return it->second;
}

bool AppRegistry::has_app(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return apps_.count(name) > 0;
}

void AppRegistry::unregister_app(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  apps_.erase(name);
}

RunReport run_ranks(Fabric& fabric, const AppFn& app,
                    const std::vector<std::uint32_t>& local_ranks,
                    std::uint32_t world_size) {
  RunReport report;
  report.rank_status.resize(local_ranks.size());

  const auto run_rank = [&fabric, &app, &report, &local_ranks,
                         world_size](std::size_t i) {
    const std::uint32_t rank = local_ranks[i];
    Comm comm(fabric, rank, world_size);
    report.rank_status[i] = app(comm);
    if (!report.rank_status[i].is_ok()) {
      PG_WARN << "rank " << rank << " failed: "
              << report.rank_status[i].to_string();
    }
  };
  // Every rank but the last runs on a cached thread; the last runs here,
  // so a node hosting one rank runs it on its runner.
  std::vector<ThreadCache::Handle> ranks;
  if (!local_ranks.empty()) {
    ranks.reserve(local_ranks.size() - 1);
    for (std::size_t i = 0; i + 1 < local_ranks.size(); ++i) {
      ranks.push_back(ThreadCache::run([&run_rank, i] { run_rank(i); }));
    }
    run_rank(local_ranks.size() - 1);
  }
  for (const ThreadCache::Handle& rank : ranks) rank.wait();

  for (const Status& s : report.rank_status) {
    if (!s.is_ok()) {
      report.status = s;
      break;
    }
  }
  return report;
}

RunReport run_local(const AppFn& app, std::uint32_t world_size) {
  LocalFabric fabric(world_size);
  std::vector<std::uint32_t> ranks(world_size);
  for (std::uint32_t i = 0; i < world_size; ++i) ranks[i] = i;
  RunReport report = run_ranks(fabric, app, ranks, world_size);
  fabric.close_all();
  return report;
}

}  // namespace pg::mpi
