// Property tests of the GPU simulator: random op streams must always
// respect the CUDA ordering rules (stream FIFO, event edges, legacy
// default-stream barriers), conserve resources in the timeline, and be
// deterministic.

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include <map>
#include <mutex>

#include "gpusim/engine.hpp"

namespace {

using gpusim::kDefaultStream;
using gpusim::SimDevice;

gpusim::LaunchConfig cfg(unsigned blocks, unsigned threads) {
  gpusim::LaunchConfig c;
  c.grid = {blocks, 1, 1};
  c.block = {threads, 1, 1};
  return c;
}

struct OpLog {
  int id;
  gpusim::StreamId stream;
};

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, OrderingRulesAlwaysHold) {
  glp::Rng rng(GetParam());
  const auto devices = gpusim::DeviceTable::all();
  SimDevice dev(devices[rng.next_below(devices.size())]);

  std::vector<gpusim::StreamId> streams = {kDefaultStream};
  const int extra = 1 + static_cast<int>(rng.next_below(5));
  for (int i = 0; i < extra; ++i) streams.push_back(dev.create_stream());

  // Build a random program and record, per op, the constraints that must
  // hold on the execution order.
  struct Submitted {
    int id;
    gpusim::StreamId stream;
    bool is_default;
  };
  std::vector<Submitted> program;
  std::vector<std::pair<int, int>> must_precede;  // (earlier id, later id)
  std::map<gpusim::StreamId, int> last_in_stream;
  std::map<int, gpusim::EventId> events;  // id of op the event follows
  int last_default = -1;

  // Filled by the functors. Functors on unordered streams may run
  // concurrently, so appends are serialized; the append order still
  // reflects every happens-before edge.
  std::vector<int> execution;
  std::mutex execution_mutex;

  const int n_ops = 10 + static_cast<int>(rng.next_below(40));
  for (int id = 0; id < n_ops; ++id) {
    const gpusim::StreamId stream =
        streams[rng.next_below(streams.size())];
    const bool is_default = stream == kDefaultStream;

    // Occasionally make this op wait for an earlier op's event.
    if (!events.empty() && rng.next_below(4) == 0) {
      auto it = events.begin();
      std::advance(it, static_cast<long>(rng.next_below(events.size())));
      dev.wait_event(stream, it->second);
      must_precede.emplace_back(it->first, id);
    }

    dev.launch_kernel(stream, "op" + std::to_string(id),
                      cfg(1 + static_cast<unsigned>(rng.next_below(40)),
                          32u << rng.next_below(5)),
                      {1e5 + static_cast<double>(rng.next_below(100)) * 1e5,
                       1e4},
                      [&execution, &execution_mutex, id] {
                        const std::scoped_lock lock(execution_mutex);
                        execution.push_back(id);
                      });

    // Constraints this launch creates.
    if (last_in_stream.count(stream)) {
      must_precede.emplace_back(last_in_stream[stream], id);
    }
    if (is_default) {
      // Barrier: everything submitted earlier precedes it.
      for (const Submitted& prior : program) {
        must_precede.emplace_back(prior.id, id);
      }
      last_default = id;
    } else if (last_default >= 0) {
      must_precede.emplace_back(last_default, id);
    }
    last_in_stream[stream] = id;
    program.push_back({id, stream, is_default});

    // Occasionally record an event after this op.
    if (rng.next_below(3) == 0) {
      events[id] = dev.record_event(stream);
    }
  }
  dev.synchronize();

  ASSERT_EQ(execution.size(), static_cast<std::size_t>(n_ops));
  std::vector<int> position(static_cast<std::size_t>(n_ops));
  for (int pos = 0; pos < n_ops; ++pos) {
    position[static_cast<std::size_t>(execution[static_cast<std::size_t>(pos)])] = pos;
  }
  for (const auto& [before, after] : must_precede) {
    EXPECT_LT(position[static_cast<std::size_t>(before)],
              position[static_cast<std::size_t>(after)])
        << "op " << after << " ran before op " << before << " (seed "
        << GetParam() << ")";
  }
}

TEST_P(EngineFuzz, TimelineConservesResources) {
  glp::Rng rng(GetParam());
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.timeline().set_enabled(true);
  std::vector<gpusim::StreamId> streams;
  for (int i = 0; i < 4; ++i) streams.push_back(dev.create_stream());
  const int n = 20 + static_cast<int>(rng.next_below(30));
  for (int i = 0; i < n; ++i) {
    dev.launch_kernel(streams[rng.next_below(streams.size())], "k",
                      cfg(1 + static_cast<unsigned>(rng.next_below(100)), 256),
                      {1e6 * (1 + static_cast<double>(rng.next_below(20))), 1e5},
                      {});
  }
  dev.synchronize();

  // Busy lane-time never exceeds lanes x active time; the recorded spans
  // cover the simulated makespan.
  const auto& stats = dev.stats();
  EXPECT_LE(stats.busy_lane_ns,
            stats.active_ns * dev.props().total_lanes() * (1.0 + 1e-9));
  const auto& recs = dev.timeline().kernels();
  ASSERT_EQ(recs.size(), static_cast<std::size_t>(n));
  double min_start = recs[0].start_ns, max_end = recs[0].end_ns;
  for (const auto& r : recs) {
    EXPECT_GE(r.end_ns, r.start_ns);
    EXPECT_GE(r.start_ns, r.submit_ns - 1e-6);  // nothing starts pre-launch
    min_start = std::min(min_start, r.start_ns);
    max_end = std::max(max_end, r.end_ns);
  }
  EXPECT_LE(max_end, dev.device_now() + 1e-6);
  EXPECT_GE(min_start, 0.0);
}

TEST_P(EngineFuzz, ReplayIsBitIdentical) {
  auto run = [&](std::uint64_t seed) {
    glp::Rng rng(seed);
    SimDevice dev(gpusim::DeviceTable::k40c());
    std::vector<gpusim::StreamId> streams = {kDefaultStream};
    for (int i = 0; i < 3; ++i) streams.push_back(dev.create_stream());
    for (int i = 0; i < 25; ++i) {
      dev.launch_kernel(streams[rng.next_below(streams.size())], "k",
                        cfg(1 + static_cast<unsigned>(rng.next_below(64)),
                            32u << rng.next_below(5)),
                        {1e5 * (1 + static_cast<double>(rng.next_below(50))), 1e4},
                        {});
    }
    dev.synchronize();
    return dev.device_now();
  };
  const double a = run(GetParam());
  const double b = run(GetParam());
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Random, EngineFuzz,
                         ::testing::Range<std::uint64_t>(100, 130));

}  // namespace
