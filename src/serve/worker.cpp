#include "serve/worker.hpp"

#include <algorithm>
#include <future>
#include <utility>

#include "trace/trace.hpp"

namespace harmony::serve {

Worker::Worker(WorkerConfig cfg)
    : cfg_(cfg),
      service_(cfg.service),
      replies_(cfg.service.queue_capacity + 64) {}

Worker::~Worker() { replies_.close(); }

void Worker::serve(std::shared_ptr<Channel> channel) {
  std::vector<std::thread> responders;
  const unsigned n = std::max(1u, cfg_.responders);
  responders.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
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
          WireRequest wire = decode_request(r);
          r.expect_end();
          if (wire.kind != RequestKind::kCostEval &&
              wire.kind != RequestKind::kLegality &&
              wire.kind != RequestKind::kTune) {
            throw WireError(std::string(to_string(wire.kind)) +
                            " is not supported over the wire "
                            "(in-process tiers only)");
          }
          // Canonical (QoS-zeroed) encoding: the snapshot-log identity,
          // so re-asks with a different deadline dedup onto one entry.
          WireRequest canon = wire;
          canon.deadline_ns = 0;
          canon.tune_workers = 0;
          Writer cw;
          encode(cw, canon);
          reply->request = cw.take();
          reply->key = routing_key(wire);
          reply->future = service_.submit(to_request(wire, catalog_));
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
          rej.retry_after = cfg_.service.retry_after;
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
    const Response resp = reply->future.get();
    Writer w;
    encode(w, resp);
    std::vector<std::uint8_t> body = w.take();
    // Log converged, freshly computed answers: deadline-cut tunes stay
    // out (same rule as the result cache), and hits are already logged
    // from the run that computed them.
    if (resp.ok() && !resp.cache_hit && converged(resp)) {
      std::lock_guard<std::mutex> lock(snap_mu_);
      if (const auto it = snap_index_.find(reply->key);
          it != snap_index_.end()) {
        snap_entries_[it->second].response = body;
      } else if (snap_entries_.size() < cfg_.snapshot_capacity) {
        snap_index_.emplace(reply->key, snap_entries_.size());
        snap_entries_.push_back(SnapshotEntry{reply->request, body});
      }
    }
    if (reply->begin_ns != 0 && trace::enabled()) {
      // The shard half of the cross-process lifecycle: same correlation
      // id as the router's "route" span, so a timeline viewer joins
      // them into one request track.
      trace::emit_span("serve_dist", "shard", reply->begin_ns,
                       trace::now_ns(), reply->id);
    }
    channel.send(Frame{MsgType::kReply, reply->id, std::move(body)});
  }
}

CacheSnapshot Worker::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  CacheSnapshot snap;
  snap.entries = snap_entries_;
  return snap;
}

std::uint64_t Worker::restore(const CacheSnapshot& snap) {
  std::uint64_t restored = 0;
  for (const SnapshotEntry& e : snap.entries) {
    Reader rq(e.request);
    const WireRequest wire_req = decode_request(rq);
    rq.expect_end();
    Reader rr(e.response);
    Response resp = decode_response(rr);
    rr.expect_end();

    const Request req = to_request(wire_req, catalog_);
    service_.warm(req, std::move(resp));
    // The compile misses paid here are exactly the snapshot's miss set;
    // replaying the snapshot's keys afterwards compiles nothing.
    service_.precompile(req);
    {
      std::lock_guard<std::mutex> lock(snap_mu_);
      const CacheKey key = routing_key(wire_req);
      if (snap_index_.find(key) == snap_index_.end() &&
          snap_entries_.size() < cfg_.snapshot_capacity) {
        snap_index_.emplace(key, snap_entries_.size());
        snap_entries_.push_back(e);
      }
    }
    ++restored;
  }
  return restored;
}

}  // namespace harmony::serve
