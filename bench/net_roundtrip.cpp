// net_roundtrip: loopback throughput of the framed TCP broker transport.
//
// Spins up a net::BrokerServer on an ephemeral loopback port, connects
// net::RemoteBroker client, and pushes messages through publish -> get ->
// ack cycles three ways:
//
//   unbatched:  one frame roundtrip per message per op
//   batched:    publish_batch / get_batch / ack_batch
//   pipelined:  batched with a producer thread publishing while the main
//               thread drains get+ack — publish frames queue behind the
//               server's scatter-gather writer instead of serializing
//               whole phases
//
// Over loopback the per-frame syscall + wakeup cost dominates small
// messages, so batching is where the wire transport earns its keep, and
// pipelining overlaps the request and drain halves of the cycle.
//
//   --check   batched >= 3x unbatched, run at the small default payload
//             where per-frame roundtrip cost is the bottleneck; and zero
//             Message::body() renders across every phase
//             (mq::body_render_count()): the typed-value codec never
//             renders JSON text.
//
// Flags: --messages N (default 2000), --batch B (default 64),
//        --payload-bytes N (default 256), --reps R (best-of, default 3),
//        --check (enforce the gate), --json-out PATH (default
//        BENCH_net.json).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/util.hpp"
#include "src/common/profiler.hpp"
#include "src/json/json.hpp"
#include "src/mq/broker.hpp"
#include "src/mq/message.hpp"
#include "src/net/broker_server.hpp"
#include "src/net/remote_broker.hpp"

namespace {

using namespace entk;

// A structured payload shaped like a task descriptor with telemetry: a few
// scalar fields plus a block of double samples (timestamps, durations)
// sized by --payload-bytes (8 wire bytes per element): the typed-value
// codec moves the numbers as fixed-width words.
mq::Message make_message(const std::string& queue, int i, int data_doubles) {
  json::Value payload;
  payload["i"] = static_cast<std::int64_t>(i);
  payload["uid"] = "task." + std::to_string(i);
  json::Array data;
  data.reserve(static_cast<std::size_t>(data_doubles));
  for (int k = 0; k < data_doubles; ++k) {
    data.push_back(1.5e9 + i + 0.001 * k);  // epoch-second timestamp shape
  }
  payload["data"] = std::move(data);
  return mq::Message::json_body(queue, std::move(payload));
}

// What every real consumer does first: read the descriptor, i.e. the one
// lazy TLV decode (payload() is an opaque call with memoizing side
// effects, so the access cannot be optimized out).
void consume(const mq::Delivery& d) {
  if (d.message.payload()->at("i").as_int() < 0) {
    throw MqError("bench: corrupt descriptor");
  }
}

struct Sample {
  double msgs_per_s = 0.0;
  double elapsed_s = 0.0;
};

/// One full cycle: publish all messages, then drain them with get+ack,
/// reading each delivered descriptor.
Sample run_cycle(net::RemoteBroker& client, const std::string& queue,
                 int messages, int batch, int data_doubles) {
  const auto t0 = std::chrono::steady_clock::now();
  if (batch <= 1) {
    for (int i = 0; i < messages; ++i) {
      client.publish(queue, make_message(queue, i, data_doubles));
    }
    int drained = 0;
    while (drained < messages) {
      auto delivery = client.get(queue, 1.0);
      if (!delivery) throw MqError("bench get timed out");
      consume(*delivery);
      client.ack(queue, delivery->delivery_tag);
      ++drained;
    }
  } else {
    for (int i = 0; i < messages; i += batch) {
      std::vector<mq::Message> chunk;
      chunk.reserve(static_cast<std::size_t>(batch));
      for (int j = i; j < i + batch && j < messages; ++j) {
        chunk.push_back(make_message(queue, j, data_doubles));
      }
      client.publish_batch(queue, std::move(chunk));
    }
    int drained = 0;
    while (drained < messages) {
      auto deliveries =
          client.get_batch(queue, static_cast<std::size_t>(batch), 1.0);
      if (deliveries.empty()) throw MqError("bench get_batch timed out");
      std::vector<std::uint64_t> tags;
      tags.reserve(deliveries.size());
      for (const auto& d : deliveries) {
        consume(d);
        tags.push_back(d.delivery_tag);
      }
      client.ack_batch(queue, tags);
      drained += static_cast<int>(deliveries.size());
    }
  }
  Sample s;
  s.elapsed_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0)
                    .count();
  s.msgs_per_s = messages / s.elapsed_s;
  return s;
}

/// Pipelined cycle: a producer thread publishes batches while this thread
/// drains get+ack concurrently through the same connection, so publish
/// frames ride the scatter-gather writer alongside delivery responses
/// instead of the two halves running as serial phases.
Sample run_pipelined(net::RemoteBroker& client, const std::string& queue,
                     int messages, int batch, int data_doubles) {
  const auto t0 = std::chrono::steady_clock::now();
  std::thread producer([&] {
    for (int i = 0; i < messages; i += batch) {
      std::vector<mq::Message> chunk;
      chunk.reserve(static_cast<std::size_t>(batch));
      for (int j = i; j < i + batch && j < messages; ++j) {
        chunk.push_back(make_message(queue, j, data_doubles));
      }
      client.publish_batch(queue, std::move(chunk));
    }
  });
  int drained = 0;
  int empty_polls = 0;
  while (drained < messages) {
    auto deliveries =
        client.get_batch(queue, static_cast<std::size_t>(batch), 1.0);
    if (deliveries.empty()) {
      if (++empty_polls > 30) throw MqError("bench pipelined drain stalled");
      continue;
    }
    empty_polls = 0;
    std::vector<std::uint64_t> tags;
    tags.reserve(deliveries.size());
    for (const auto& d : deliveries) {
      consume(d);
      tags.push_back(d.delivery_tag);
    }
    client.ack_batch(queue, tags);
    drained += static_cast<int>(deliveries.size());
  }
  producer.join();
  Sample s;
  s.elapsed_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0)
                    .count();
  s.msgs_per_s = messages / s.elapsed_s;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const int messages =
      static_cast<int>(bench::flag_int(argc, argv, "--messages", 2000));
  const int batch =
      static_cast<int>(bench::flag_int(argc, argv, "--batch", 64));
  const int payload_bytes =
      static_cast<int>(bench::flag_int(argc, argv, "--payload-bytes", 256));
  const long reps = bench::flag_int(argc, argv, "--reps", 3);
  const bool check = bench::flag_present(argc, argv, "--check");
  std::string json_out = "BENCH_net.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json-out") json_out = argv[i + 1];
  }

  // 8 wire bytes per data element (TLV int64); the scalar fields are noise.
  const int data_doubles = payload_bytes / 8;
  const std::string queue = "q.bench";

  auto broker = std::make_shared<mq::Broker>("bench_broker");
  broker->declare_queue(queue, {});
  net::BrokerServer server(broker, {}, std::make_shared<Profiler>());
  server.start();

  net::RemoteBrokerConfig client_cfg;
  client_cfg.endpoint = server.endpoint();
  net::RemoteBroker client(client_cfg);
  client.declare_queue(queue, {});

  std::printf("loopback broker at %s: %d messages x %d B payload, "
              "batch=%d, best of %ld\n",
              server.endpoint().c_str(), messages, payload_bytes, batch, reps);

  Sample unbatched, batched, pipelined;
  std::uint64_t binary_renders = 0;
  for (long r = 0; r < reps; ++r) {  // best-of-R each mode, paired per rep
    const std::uint64_t renders_before = mq::body_render_count();
    const Sample u = run_cycle(client, queue, messages, 1, data_doubles);
    const Sample b = run_cycle(client, queue, messages, batch, data_doubles);
    const Sample p = run_pipelined(client, queue, messages, batch, data_doubles);
    binary_renders += mq::body_render_count() - renders_before;
    if (u.msgs_per_s > unbatched.msgs_per_s) unbatched = u;
    if (b.msgs_per_s > batched.msgs_per_s) batched = b;
    if (p.msgs_per_s > pipelined.msgs_per_s) pipelined = p;
  }
  const double batch_speedup = batched.msgs_per_s / unbatched.msgs_per_s;
  const double pipeline_speedup = pipelined.msgs_per_s / batched.msgs_per_s;

  std::printf("%16s %14s %14s\n", "cycle", "msgs/s", "elapsed (s)");
  std::printf("%16s %14.0f %14.3f\n", "unbatched", unbatched.msgs_per_s,
              unbatched.elapsed_s);
  std::printf("%16s %14.0f %14.3f\n", "batched", batched.msgs_per_s,
              batched.elapsed_s);
  std::printf("%16s %14.0f %14.3f\n", "pipelined", pipelined.msgs_per_s,
              pipelined.elapsed_s);
  std::printf("batched vs unbatched: %.2fx; pipelined vs batched: %.2fx; "
              "body renders: %llu\n",
              batch_speedup, pipeline_speedup,
              static_cast<unsigned long long>(binary_renders));

  client.close();
  server.stop();
  broker->close();

  json::Value doc;
  doc["bench"] = "net_roundtrip";
  doc["endpoint"] = "loopback";
  doc["messages"] = messages;
  doc["payload_bytes"] = payload_bytes;
  doc["batch"] = batch;
  doc["reps"] = static_cast<std::int64_t>(reps);
  doc["unbatched_msgs_per_s"] = unbatched.msgs_per_s;
  doc["batched_msgs_per_s"] = batched.msgs_per_s;
  doc["pipelined_msgs_per_s"] = pipelined.msgs_per_s;
  doc["speedup"] = batch_speedup;
  doc["pipeline_speedup"] = pipeline_speedup;
  doc["binary_body_renders"] = static_cast<std::int64_t>(binary_renders);
  std::ofstream out(json_out);
  out << doc.dump() << "\n";
  std::printf("results written to %s\n", json_out.c_str());

  bool failed = false;
  if (check && batch_speedup < 3.0) {
    std::fprintf(stderr,
                 "NET CHECK FAILED: expected batched >= 3x unbatched over "
                 "loopback, got %.2fx\n",
                 batch_speedup);
    failed = true;
  }
  if (check && binary_renders != 0) {
    std::fprintf(stderr,
                 "NET CHECK FAILED: %llu Message::body() renders on the "
                 "wire path (expected 0)\n",
                 static_cast<unsigned long long>(binary_renders));
    failed = true;
  }
  return failed ? 1 : 0;
}
