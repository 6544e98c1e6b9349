// Transport-layer throughput: frame codec rates and the end-to-end
// networked serving path.
//
// Three sections:
//   1. Frame codec — encode and streaming-decode rates (frames/sec and
//      MB/sec) over an in-memory stream of realistically sized frames
//      (one wire report per frame), decoded in socket-read-sized chunks.
//   2. Socket loopback — a full round trip: fleet packets -> frames ->
//      SocketClient -> SocketListener -> RoundBuffer -> sharded ingest,
//      measuring delivered frames/sec across the real TCP loopback.
//   3. End-to-end serving — a MechanismSession advanced over the socket
//      transport (clients -> frames -> RoundBuffer -> shards -> release),
//      measuring reports/sec of the whole networked path.
//
// Flags: --scale (population multiplier), --reps (best rep reported),
// --threads, --connections (highest K of the {1,2,4} socket-connection
// sweep; the round's frames are striped across K loopback connections and
// reassembled by the RoundBuffer's distinct-packet accounting), --depth
// (highest pipeline depth of the serving matrix: section 3 sweeps
// connections x depth in {1,2}, recording serve_reports_per_s_cK_dD per
// cell — on a 1-core host this measures overhead, not scaling), --csv,
// --help. The "[throughput]" line records frames/sec (codec decode),
// socket frames/sec at each swept connection count and end-to-end
// reports/sec for BENCH_transport.json (scripts/run_benches.sh).
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/factory.h"
#include "core/mechanism.h"
#include "fo/wire.h"
#include "service/client_fleet.h"
#include "service/session.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "transport/socket.h"
#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

using namespace ldpids;
using namespace ldpids::bench;
using service::ClientFleet;
using service::MakeBufferedTransport;
using service::MechanismSession;
using service::RoundRequest;
using service::SessionOptions;
using transport::Frame;
using transport::FrameDecoder;
using transport::FrameDemux;
using transport::MakeDataFrame;
using transport::RoundBuffer;
using transport::SendRoundFrames;
using transport::SocketClient;
using transport::SocketListener;

constexpr std::size_t kDomain = 64;
constexpr double kEpsilon = 1.0;
constexpr uint64_t kSessionId = 1;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint32_t TruthValue(uint64_t user, std::size_t t) {
  return static_cast<uint32_t>(HashCounter(13, user, t) % kDomain);
}

struct CodecCell {
  uint64_t frames = 0;
  uint64_t bytes = 0;
  double encode_frames_per_s = 0.0;
  double decode_frames_per_s = 0.0;
};

// One round of GRR-report-sized frames encoded into a stream, then decoded
// through the streaming decoder in 64 KiB chunks (what a socket read
// hands the server).
CodecCell BenchCodec(std::size_t num_frames, int reps) {
  const ClientFleet fleet(num_frames, TruthValue, 97);
  RoundRequest request;
  request.epsilon = kEpsilon;
  request.domain = kDomain;
  request.oracle = OracleId::kGrr;
  const auto packets = fleet.ProduceRound(request, 1);

  CodecCell cell;
  cell.frames = num_frames;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    std::vector<uint8_t> stream;
    stream.reserve(num_frames *
                   transport::EncodedFrameSize(packets[0].size()));
    auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < num_frames; ++i) {
      transport::AppendEncodedFrame(MakeDataFrame(kSessionId, 0, packets[i]),
                                    &stream);
    }
    const double encode_wall = Seconds(start);
    cell.bytes = stream.size();

    FrameDecoder decoder;
    Frame frame;
    uint64_t decoded = 0;
    constexpr std::size_t kChunk = 64 * 1024;
    start = std::chrono::steady_clock::now();
    for (std::size_t off = 0; off < stream.size(); off += kChunk) {
      decoder.Append(stream.data() + off,
                     std::min(kChunk, stream.size() - off));
      while (decoder.Next(&frame)) ++decoded;
    }
    const double decode_wall = Seconds(start);
    if (decoded != num_frames || decoder.stats().drops() != 0) {
      std::fprintf(stderr, "codec bench lost frames: %s\n",
                   decoder.stats().ToString().c_str());
      std::exit(1);
    }
    const double n = static_cast<double>(num_frames);
    if (encode_wall > 0.0) {
      cell.encode_frames_per_s =
          std::max(cell.encode_frames_per_s, n / encode_wall);
    }
    if (decode_wall > 0.0) {
      cell.decode_frames_per_s =
          std::max(cell.decode_frames_per_s, n / decode_wall);
    }
  }
  return cell;
}

struct SocketCell {
  uint64_t frames = 0;
  double frames_per_s = 0.0;
  double mb_per_s = 0.0;
};

// Pushes one round's frames through the real loopback socket into a
// RoundBuffer and waits for full delivery (the end-of-round marker plus
// count is the flow control, exactly like serving). With `connections` > 1
// the frames are striped round-robin across that many client connections.
SocketCell BenchSocketLoopback(std::size_t num_frames, int reps,
                               std::size_t connections) {
  const ClientFleet fleet(num_frames, TruthValue, 98);
  RoundRequest request;
  request.epsilon = kEpsilon;
  request.domain = kDomain;
  request.oracle = OracleId::kGrr;
  const auto packets = fleet.ProduceRound(request, 1);

  SocketCell cell;
  cell.frames = num_frames;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    transport::RoundBufferOptions options;
    options.round_deadline = std::chrono::milliseconds(60000);
    RoundBuffer buffer(options);
    FrameDemux demux;
    demux.Register(kSessionId, &buffer);
    SocketListener listener(0, demux.Handler());
    std::vector<std::unique_ptr<SocketClient>> clients;
    std::vector<transport::FrameSender*> senders;
    for (std::size_t c = 0; c < connections; ++c) {
      clients.push_back(std::make_unique<SocketClient>(listener.port()));
      senders.push_back(clients.back().get());
    }
    uint64_t bytes = 0;
    const auto start = std::chrono::steady_clock::now();
    SendRoundFrames(senders, kSessionId, 0, packets);
    const auto delivered = buffer.TakeRound(0);
    const double wall = Seconds(start);
    for (auto& client : clients) {
      bytes += client->bytes_sent();
      client->Close();
    }
    listener.Stop();
    if (delivered.size() != num_frames) {
      std::fprintf(stderr, "socket bench lost frames: %zu of %zu\n",
                   delivered.size(), num_frames);
      std::exit(1);
    }
    // Cross-check the striping: the per-connection decoder stats must sum
    // (FrameStats::operator+=) to exactly the listener's aggregate, with
    // every frame accounted for and no decode errors on any connection.
    transport::FrameStats summed;
    for (const transport::FrameStats& conn : listener.connection_stats()) {
      summed += conn;
    }
    const transport::FrameStats aggregate = listener.stats();
    if (summed.total() != aggregate.total() ||
        summed.data_frames != num_frames || summed.drops() != 0) {
      std::fprintf(stderr,
                   "socket bench per-connection stats mismatch:\n"
                   "  summed:    %s\n  aggregate: %s\n",
                   summed.ToString().c_str(), aggregate.ToString().c_str());
      std::exit(1);
    }
    if (wall > 0.0) {
      cell.frames_per_s = std::max(
          cell.frames_per_s, static_cast<double>(num_frames) / wall);
      cell.mb_per_s =
          std::max(cell.mb_per_s,
                   static_cast<double>(bytes) / (1024.0 * 1024.0) / wall);
    }
  }
  return cell;
}

struct ServeCell {
  uint64_t reports = 0;
  double reports_per_s = 0.0;
  double wall_s = 0.0;
};

// A full networked serving run: LBU session over the socket transport,
// the round's frames striped across `connections` loopback connections
// and the session pipelined at `depth` (1 = serial; >= 2 overlaps round
// t+1's transport with round t's estimation via the split transport).
ServeCell BenchServeOverSocket(uint64_t users, std::size_t timestamps,
                               std::size_t shards, std::size_t threads,
                               std::size_t connections, std::size_t depth) {
  const ClientFleet fleet(users, TruthValue, 99);
  RoundBuffer buffer;
  FrameDemux demux;
  demux.Register(kSessionId, &buffer);
  SocketListener listener(0, demux.Handler());
  std::vector<std::unique_ptr<SocketClient>> clients;
  std::vector<transport::FrameSender*> senders;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<SocketClient>(listener.port()));
    senders.push_back(clients.back().get());
  }

  MechanismConfig config;
  config.epsilon = kEpsilon;
  config.window = 8;
  config.fo = "GRR";
  config.seed = 17;
  SessionOptions options;
  options.num_shards = shards;
  options.num_threads = threads;
  options.pipeline_depth = depth;

  auto announce = [&](const RoundRequest& request) {
    SendRoundFrames(senders, kSessionId, request.round_index,
                    fleet.ProduceRound(request, threads));
  };
  // The split transport gives pipeline_depth >= 2 its real overlap; at
  // depth 1 it degrades to the plain buffered transport's behavior.
  MechanismSession session(
      CreateMechanism("LBU", config, users), kDomain, options,
      service::MakeBufferedSplitTransport(buffer, announce, threads));

  ServeCell cell;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < timestamps; ++t) session.Advance();
  cell.wall_s = Seconds(start);
  cell.reports = session.stats().accepted;
  if (cell.wall_s > 0.0) {
    cell.reports_per_s = static_cast<double>(cell.reports) / cell.wall_s;
  }
  for (auto& client : clients) client->Close();
  listener.Stop();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (HandleHelp(flags,
                 "bench_transport — network transport subsystem: frame "
                 "codec, socket loopback and end-to-end networked "
                 "serving rates")) {
    return 0;
  }
  const double scale = BenchScale(flags);
  const std::size_t threads = BenchThreads(flags);
  const int reps = RepsFlag(flags, 3);
  const std::string csv_path = flags.GetString("csv", "");
  const int64_t connections_flag = flags.GetInt("connections", 4);
  if (connections_flag < 1) {
    std::fprintf(stderr, "error: --connections must be >= 1, got %lld\n",
                 static_cast<long long>(connections_flag));
    return 2;
  }
  const std::size_t max_connections =
      static_cast<std::size_t>(connections_flag);
  const int64_t depth_flag = flags.GetInt("depth", 2);
  if (depth_flag < 1) {
    std::fprintf(stderr, "error: --depth must be >= 1, got %lld\n",
                 static_cast<long long>(depth_flag));
    return 2;
  }
  const std::size_t max_depth = static_cast<std::size_t>(depth_flag);

  PrintHeader("Transport throughput", scale);

  // --- section 1: frame codec ---
  const std::size_t codec_frames = ScaledUsers(scale, 400000);
  const CodecCell codec = BenchCodec(codec_frames, reps);
  const double frame_bytes =
      codec.frames > 0
          ? static_cast<double>(codec.bytes) / static_cast<double>(codec.frames)
          : 0.0;
  std::printf("frame codec (%llu frames, %.0f B/frame):\n",
              static_cast<unsigned long long>(codec.frames), frame_bytes);
  std::printf("  encode: %12.0f frames/s  (%7.1f MB/s)\n",
              codec.encode_frames_per_s,
              codec.encode_frames_per_s * frame_bytes / (1024.0 * 1024.0));
  std::printf("  decode: %12.0f frames/s  (%7.1f MB/s)\n",
              codec.decode_frames_per_s,
              codec.decode_frames_per_s * frame_bytes / (1024.0 * 1024.0));

  // --- section 2: socket loopback, swept over connection counts ---
  const std::size_t socket_frames = ScaledUsers(scale, 200000);
  std::vector<std::size_t> sweep;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    if (k <= max_connections) sweep.push_back(k);
  }
  std::vector<SocketCell> socket_cells;
  std::printf(
      "\nsocket loopback (%llu frames through 127.0.0.1, round-buffered):\n",
      static_cast<unsigned long long>(socket_frames));
  for (const std::size_t k : sweep) {
    socket_cells.push_back(BenchSocketLoopback(socket_frames, reps, k));
    std::printf("  deliver (%zu conn): %12.0f frames/s  (%7.1f MB/s)\n", k,
                socket_cells.back().frames_per_s,
                socket_cells.back().mb_per_s);
  }
  const SocketCell& socket_cell = socket_cells.front();

  // --- section 3: end-to-end networked serving, connections x depth ---
  // The full K x pipeline-depth sizing matrix (ROADMAP multi-connection
  // scaling item). Caveat: on a 1-core host every cell shares that core,
  // so the matrix measures striping/pipelining *overhead*, not scaling —
  // per-connection readers and depth-2 overlap only pay off with cores
  // to run on. Re-record on a multi-core host for the sizing answer.
  const uint64_t users = std::max<uint64_t>(400, ScaledUsers(scale, 50000));
  const std::size_t timestamps =
      std::max<std::size_t>(8, ScaledLength(scale, 64));
  std::vector<std::size_t> depth_sweep;
  for (const std::size_t d : {std::size_t{1}, std::size_t{2}}) {
    if (d <= max_depth) depth_sweep.push_back(d);
  }
  std::printf(
      "\nend-to-end over socket: LBU x %zu timestamps, %llu users/round, "
      "adaptive shards\n"
      "(1-core caveat: cells below measure striping/pipelining overhead, "
      "not multi-core scaling)\n",
      timestamps, static_cast<unsigned long long>(users));
  std::vector<std::vector<ServeCell>> serve_cells;  // [conn][depth]
  for (const std::size_t k : sweep) {
    serve_cells.emplace_back();
    for (const std::size_t d : depth_sweep) {
      serve_cells.back().push_back(
          BenchServeOverSocket(users, timestamps, /*shards=*/0, threads, k,
                               d));
      std::printf("  %zu conn, depth %zu: %llu reports (%12.0f reports/s)\n",
                  k, d,
                  static_cast<unsigned long long>(
                      serve_cells.back().back().reports),
                  serve_cells.back().back().reports_per_s);
    }
  }
  const ServeCell& serve = serve_cells.front().front();

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path, {"section", "items", "items_per_s"});
    csv.WriteRow("codec_encode",
                 {static_cast<double>(codec.frames),
                  codec.encode_frames_per_s});
    csv.WriteRow("codec_decode",
                 {static_cast<double>(codec.frames),
                  codec.decode_frames_per_s});
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      csv.WriteRow("socket_deliver_c" + std::to_string(sweep[i]),
                   {static_cast<double>(socket_cells[i].frames),
                    socket_cells[i].frames_per_s});
    }
    csv.WriteRow("serve_reports",
                 {static_cast<double>(serve.reports), serve.reports_per_s});
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      for (std::size_t j = 0; j < depth_sweep.size(); ++j) {
        csv.WriteRow("serve_reports_c" + std::to_string(sweep[i]) + "_d" +
                         std::to_string(depth_sweep[j]),
                     {static_cast<double>(serve_cells[i][j].reports),
                      serve_cells[i][j].reports_per_s});
      }
    }
  }

  std::string per_connection;
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    char key[64];
    std::snprintf(key, sizeof(key), " socket_frames_per_s_c%zu=%.0f",
                  sweep[i], socket_cells[i].frames_per_s);
    per_connection += key;
  }
  // The serving matrix: one key per (connections, depth) cell.
  std::string per_cell;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    for (std::size_t j = 0; j < depth_sweep.size(); ++j) {
      char key[64];
      std::snprintf(key, sizeof(key), " serve_reports_per_s_c%zu_d%zu=%.0f",
                    sweep[i], depth_sweep[j],
                    serve_cells[i][j].reports_per_s);
      per_cell += key;
    }
  }
  std::printf(
      "\n[throughput] threads=%zu connections=%zu depth=%zu frames=%llu "
      "frames_per_s=%.0f socket_frames_per_s=%.0f%s reports_per_s=%.0f%s "
      "wall_s=%.3f\n",
      threads, max_connections, max_depth,
      static_cast<unsigned long long>(codec.frames),
      codec.decode_frames_per_s, socket_cell.frames_per_s,
      per_connection.c_str(), serve.reports_per_s, per_cell.c_str(),
      serve.wall_s);
  return 0;
}
