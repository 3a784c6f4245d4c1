#include "serve/worker.hpp"

#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace harmony::serve {

Worker::Worker(ServiceConfig cfg)
    : service_(cfg), replies_(cfg.queue_capacity + 64) {}

Worker::~Worker() { replies_.close(); }

void Worker::serve(std::shared_ptr<Channel> channel) {
  std::vector<std::thread> responders;
  responders.reserve(kResponders);
  for (unsigned i = 0; i < kResponders; ++i) {
    responders.emplace_back([this, &channel] { responder_loop(*channel); });
  }

  Frame frame;
  bool running = true;
  while (running && channel->recv(frame)) {
    switch (frame.type) {
      case MsgType::kSubmit: {
        auto reply = std::make_unique<Reply>();
        reply->id = frame.id;
        if (trace::enabled()) reply->begin_ns = trace::now_ns();
        try {
          Reader r(frame.body);
          Request req = decode_request(r, catalog_);
          r.expect_end();
          reply->future = service_.submit(std::move(req));
        } catch (const std::exception& e) {
          Response error;
          error.status = Status::kError;
          error.error = e.what();
          std::promise<Response> ready;
          ready.set_value(std::move(error));
          reply->future = ready.get_future();
        }
        if (!replies_.try_push(std::move(reply))) {
          // Responder backlog full: shed load the same way the Service
          // sheds admission-queue overflow.
          Response rej;
          rej.status = Status::kRejected;
          rej.error = "shard responder backlog full";
          rej.retry_after = service_.config().retry_after;
          Writer w;
          encode(w, rej);
          channel->send(Frame{MsgType::kReply, frame.id, w.take()});
        }
        break;
      }
      case MsgType::kMetricsGet: {
        const MetricsSnapshot snap = service_.metrics();
        Writer w;
        encode(w, to_wire(snap, snap.latency_buckets));
        channel->send(Frame{MsgType::kMetrics, frame.id, w.take()});
        break;
      }
      case MsgType::kSnapshotGet: {
        channel->send(
            Frame{MsgType::kSnapshot, frame.id, encode(snapshot())});
        break;
      }
      case MsgType::kRestore: {
        std::uint64_t restored = 0;
        try {
          restored = restore(decode_snapshot(frame.body));
        } catch (const std::exception&) {
          restored = 0;  // count of 0 signals a rejected snapshot
        }
        Writer w;
        w.u64(restored);
        channel->send(Frame{MsgType::kRestored, frame.id, w.take()});
        break;
      }
      case MsgType::kShutdown:
        running = false;
        break;
      default:
        break;  // unknown control frames are ignored, not fatal
    }
  }

  // Drain: every admitted request still gets its reply before the
  // responders stop — this is the worker half of graceful drain.
  replies_.close();
  for (std::thread& t : responders) t.join();
  channel->close();
}

void Worker::responder_loop(Channel& channel) {
  trace::set_thread_name("serve-shard");
  std::unique_ptr<Reply> reply;
  while (replies_.pop(reply)) {
    Writer w;
    encode(w, reply->future.get());
    if (reply->begin_ns != 0 && trace::enabled()) {
      // The shard half of the cross-process lifecycle: same correlation
      // id as the router's "route" span, so a timeline viewer joins
      // them into one request track.
      trace::emit_span("serve_dist", "shard", reply->begin_ns,
                       trace::now_ns(), reply->id);
    }
    channel.send(Frame{MsgType::kReply, reply->id, w.take()});
  }
}

CacheSnapshot Worker::snapshot() const {
  CacheSnapshot snap;
  for (const auto& [key, resp] : service_.cache_entries()) {
    Writer w;
    encode(w, *resp);
    snap.entries.push_back(SnapshotEntry{key, w.take()});
  }
  return snap;
}

std::uint64_t Worker::restore(const CacheSnapshot& snap) {
  // Decode everything before warming anything: a snapshot is restored
  // whole or not at all.
  std::vector<Response> decoded;
  decoded.reserve(snap.entries.size());
  for (const SnapshotEntry& e : snap.entries) {
    Reader r(e.response);
    decoded.push_back(decode_response(r));
    r.expect_end();
    if (!decoded.back().ok() || !converged(decoded.back())) {
      throw WireError("CacheSnapshot: entry is not a cacheable answer");
    }
  }
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    service_.warm(snap.entries[i].key, std::move(decoded[i]));
  }
  return decoded.size();
}

}  // namespace harmony::serve
