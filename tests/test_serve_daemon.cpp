// serve/daemon.h over a real file descriptor: FdLineSource feeding
// Daemon::run through a pipe(2) must produce the same reply stream as an
// IstreamLineSource run, and a stop flag raised while the writer is silent
// must end the run (the reader's poll wakeup and the main loop's wait both
// honour it).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "core/online_cp.h"
#include "serve/daemon.h"
#include "serve/trace_gen.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::serve {
namespace {

topo::Topology make_topo() {
  util::Rng rng(11);
  return topo::make_waxman(40, rng);
}

std::string make_trace(const topo::Topology& topo) {
  std::ostringstream out;
  util::Rng rng(29);
  TraceGenOptions options;
  options.num_requests = 80;
  options.arrival_rate = 20.0;
  options.mean_duration = 40.0;
  write_serve_trace(out, topo, rng, options);
  return out.str();
}

/// Writes `text` to `fd` in small uneven chunks, so lines straddle reads.
void write_all(int fd, const std::string& text) {
  std::size_t done = 0;
  std::size_t chunk = 97;
  while (done < text.size()) {
    const std::size_t n = std::min(chunk, text.size() - done);
    const ssize_t written = ::write(fd, text.data() + done, n);
    ASSERT_GT(written, 0);
    done += static_cast<std::size_t>(written);
    chunk = chunk * 3 % 1000 + 1;
  }
}

TEST(ServeDaemon, FdLineSourceMatchesIstreamSource) {
  const topo::Topology topo = make_topo();
  const std::string trace = make_trace(topo);

  core::OnlineCp reference_algo(topo);
  Daemon reference(reference_algo, {}, DaemonOptions{});
  std::istringstream in(trace);
  IstreamLineSource istream_source(in);
  std::ostringstream expected;
  reference.run(istream_source, expected);

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::thread writer([&] {
    write_all(fds[1], trace);
    ::close(fds[1]);
  });
  core::OnlineCp algo(topo);
  Daemon daemon(algo, {}, DaemonOptions{});
  FdLineSource fd_source(fds[0], nullptr);
  std::ostringstream actual;
  const DaemonStats stats = daemon.run(fd_source, actual);
  writer.join();
  ::close(fds[0]);

  EXPECT_EQ(stats.stop_cause, "eof");
  EXPECT_EQ(actual.str(), expected.str());
  EXPECT_EQ(stats.active, 0u);
}

TEST(ServeDaemon, StopFlagEndsRunWhileWriterIsSilent) {
  const topo::Topology topo = make_topo();
  const std::string trace = make_trace(topo);
  const std::string first_line = trace.substr(0, trace.find('\n') + 1);

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // One line, then silence: the write end stays open, so the reader never
  // sees end of input.
  write_all(fds[1], first_line);
  std::atomic<bool> stop{false};
  std::thread stopper([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
  });
  core::OnlineCp algo(topo);
  DaemonOptions options;
  options.stop = &stop;
  Daemon daemon(algo, {}, options);
  FdLineSource source(fds[0], &stop);
  std::ostringstream out;
  const DaemonStats stats = daemon.run(source, out);
  stopper.join();
  ::close(fds[1]);
  ::close(fds[0]);

  EXPECT_EQ(stats.stop_cause, "signal");
  EXPECT_LE(stats.replies_emitted, 1u);
}

}  // namespace
}  // namespace nfvm::serve
