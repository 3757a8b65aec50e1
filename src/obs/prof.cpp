#include "obs/prof.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <tuple>

#include "obs/json.hpp"
#include "obs/recorder.hpp"

namespace mvflow::obs {

void Profiler::enable() {
  enabled_ = true;
  records_.clear();
  records_.reserve(1u << 12);
}

void Profiler::record(const ProfRecord& r) { records_.push_back(r); }

void Profiler::absorb(const Profiler& other) {
  records_.insert(records_.end(), other.records_.begin(),
                  other.records_.end());
}

std::string_view to_string(Segment s) {
  switch (s) {
    case Segment::credit_stall: return "credit_stall";
    case Segment::ecm_rtt: return "ecm_rtt";
    case Segment::backlog: return "backlog";
    case Segment::retransmit: return "retransmit";
    case Segment::wire: return "wire";
    case Segment::match_wait: return "match_wait";
  }
  return "?";
}

// ------------------------------------------------------- offline analysis --

namespace {

using ConnKey = std::tuple<std::int16_t, std::int16_t, std::uint64_t>;

ConnKey conn_key(const ProfRecord& r) { return {r.src, r.dst, r.seq}; }

std::int64_t ns(sim::TimePoint t) { return t.count(); }

/// Summarise `samples` (reordered in place). Nearest-rank quantiles by
/// selection, not a full sort: ranks ascend p50 <= p90 <= p99, so each
/// selection only searches above the previous one.
LatencySummary summarize(std::vector<std::int64_t>& samples) {
  LatencySummary out;
  if (samples.empty()) return out;
  out.count = samples.size();
  out.min_ns = samples.front();
  out.max_ns = samples.front();
  for (std::int64_t v : samples) {
    out.sum_ns += v;
    out.min_ns = std::min(out.min_ns, v);
    out.max_ns = std::max(out.max_ns, v);
  }
  auto from = samples.begin();
  for (auto [pct, dst] : {std::pair{50u, &out.p50_ns},
                          std::pair{90u, &out.p90_ns},
                          std::pair{99u, &out.p99_ns}}) {
    const std::size_t rank = (pct * samples.size() + 99) / 100;  // ceil, >= 1
    const auto it = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(from, it, samples.end());
    *dst = *it;
    from = it;
  }
  return out;
}

}  // namespace

ProfileAnalysis analyze(const std::vector<ProfRecord>& records) {
  ProfileAnalysis out;

  // Index the three families. QP recovery can replay a wire message through
  // a fresh QP (same device tx id, same sequence number); emplace keeps the
  // first record, which carries the original protocol history. Each indexed
  // QP lifecycle and backlogged send is also one latency sample, whether or
  // not its message joins below; the summaries ignore sample order.
  std::map<ConnKey, const ProfRecord*> sends;
  std::map<ConnKey, const ProfRecord*> recvs;
  std::map<std::pair<std::int16_t, std::uint64_t>, const ProfRecord*> qps;
  std::vector<std::int64_t> post_to_wire;
  std::vector<std::int64_t> wire_to_ack;
  std::vector<std::int64_t> backlog;
  for (const ProfRecord& r : records) {
    switch (r.family) {
      case ProfFamily::dev_send:
        if (sends.emplace(conn_key(r), &r).second &&
            (r.flags & kProfBacklogged) != 0) {
          backlog.push_back(ns(r.t2) - ns(r.t0));
        }
        break;
      case ProfFamily::qp_send:
        if (qps.emplace(std::make_pair(r.src, r.aux), &r).second) {
          post_to_wire.push_back(ns(r.t1) - ns(r.t0));
          wire_to_ack.push_back(ns(r.t3) - ns(r.t1));
        }
        break;
      case ProfFamily::dev_recv:
        recvs.emplace(conn_key(r), &r);
        break;
    }
  }

  out.post_to_wire = summarize(post_to_wire);
  out.wire_to_ack = summarize(wire_to_ack);
  out.backlog_residency = summarize(backlog);

  // Join each dev_send with its QP lifecycle and its receiver-side record;
  // the map iteration order is the canonical (src, dst, seq) order.
  std::map<std::pair<std::int16_t, std::int16_t>, SegmentTotals> conns;
  for (const auto& [key, s] : sends) {
    const auto qit = qps.find({s->src, s->aux});
    const auto rit = recvs.find(key);
    if (qit == qps.end() || rit == recvs.end()) {
      ++out.incomplete;
      continue;
    }
    const ProfRecord& q = *qit->second;
    const ProfRecord& rv = *rit->second;

    MessageProfile m;
    m.src = s->src;
    m.dst = s->dst;
    m.seq = s->seq;
    m.grant_seq = s->grant_seq;
    m.msg_kind = s->msg_kind;
    m.flags = s->flags;
    m.bytes = s->bytes;
    m.n_retx = q.n_retx;
    m.t_post = ns(s->t0);
    m.t_disp = ns(s->t1);
    m.t_first_tx = ns(q.t1);
    m.t_last_tx = ns(q.t2);
    m.t_acked = ns(q.t3);
    m.t_recv = ns(rv.t0);
    m.t_matched = ns(rv.t1);
    m.flags |= rv.flags & kProfUnexpected;

    // The wait before dispatch splits three ways. `zero` is the online
    // zero-credit overlap of [t_post, t_disp]; the slice of it during which
    // the releasing ECM was actually in flight is the ECM round-trip, the
    // rest is plain credit stall, and the credits-available remainder of
    // the wait is head-of-line backlog queueing.
    const std::int64_t wait = m.t_disp - m.t_post;
    const std::int64_t zero = std::clamp<std::int64_t>(s->zero_ns, 0, wait);
    std::int64_t ecm = 0;
    if (zero > 0 && (s->flags & kProfGrantEcm) != 0 &&
        s->grant_seq != kProfNoSeq) {
      const ConnKey gkey{s->dst, s->src, s->grant_seq};
      const auto gs = sends.find(gkey);
      const auto gr = recvs.find(gkey);
      if (gs != sends.end() && gr != recvs.end()) {
        const std::int64_t lo = std::max(m.t_post, ns(gs->second->t1));
        const std::int64_t hi = std::min(m.t_disp, ns(gr->second->t0));
        ecm = std::clamp<std::int64_t>(hi - lo, 0, zero);
      }
    }
    m.seg[static_cast<std::size_t>(Segment::credit_stall)] = zero - ecm;
    m.seg[static_cast<std::size_t>(Segment::ecm_rtt)] = ecm;
    m.seg[static_cast<std::size_t>(Segment::backlog)] = wait - zero;
    m.seg[static_cast<std::size_t>(Segment::retransmit)] =
        m.t_last_tx - m.t_first_tx;
    m.seg[static_cast<std::size_t>(Segment::wire)] =
        (m.t_first_tx - m.t_disp) + (m.t_recv - m.t_last_tx);
    m.seg[static_cast<std::size_t>(Segment::match_wait)] =
        m.t_matched - m.t_recv;

    out.exact = out.exact && m.attributed() == m.e2e();
    if ((m.flags & kProfPayload) != 0) {
      out.payload.add(m);
      conns[{m.src, m.dst}].add(m);
    } else {
      out.control.add(m);
    }
    out.messages.push_back(m);
  }

  out.connections.reserve(conns.size());
  for (const auto& [key, totals] : conns) {
    ConnectionBlame b;
    b.src = key.first;
    b.dst = key.second;
    b.totals = totals;
    out.connections.push_back(b);
  }

  // Critical path: start at the last-completing payload message and walk
  // the grant chain backwards — each hop is the message whose arrival
  // released the blocked sender. Root first, last completion last.
  const MessageProfile* last = nullptr;
  for (const MessageProfile& m : out.messages) {
    if ((m.flags & kProfPayload) == 0) continue;
    if (last == nullptr || m.t_matched > last->t_matched) last = &m;
  }
  std::vector<const MessageProfile*> chain;
  for (const MessageProfile* cur = last;
       cur != nullptr && chain.size() < 64;) {
    chain.push_back(cur);
    const MessageProfile* pred = nullptr;
    const std::int64_t stall =
        cur->seg[static_cast<std::size_t>(Segment::credit_stall)] +
        cur->seg[static_cast<std::size_t>(Segment::ecm_rtt)];
    if (stall > 0 && cur->grant_seq != kProfNoSeq) {
      // The canonical message vector is sorted by (src, dst, seq).
      MessageProfile probe;
      probe.src = cur->dst;
      probe.dst = cur->src;
      probe.seq = cur->grant_seq;
      const auto it = std::lower_bound(
          out.messages.begin(), out.messages.end(), probe,
          [](const MessageProfile& a, const MessageProfile& b) {
            return std::tie(a.src, a.dst, a.seq) <
                   std::tie(b.src, b.dst, b.seq);
          });
      if (it != out.messages.end() && it->src == probe.src &&
          it->dst == probe.dst && it->seq == probe.seq) {
        pred = &*it;
      }
    }
    cur = pred;
  }
  std::reverse(chain.begin(), chain.end());
  for (const MessageProfile* m : chain) {
    for (std::size_t i = 0; i < kSegmentCount; ++i) {
      if (m->seg[i] == 0) continue;
      CriticalStep step;
      step.src = m->src;
      step.dst = m->dst;
      step.seq = m->seq;
      step.segment = static_cast<Segment>(i);
      step.ns = m->seg[i];
      out.critical_path.push_back(step);
    }
  }
  return out;
}

std::vector<FlowArrowEvent> flow_events(const ProfileAnalysis& a) {
  std::vector<FlowArrowEvent> out;
  out.reserve(a.messages.size() * 2);
  for (const MessageProfile& m : a.messages) {
    const std::uint64_t id =
        (static_cast<std::uint64_t>(static_cast<std::uint16_t>(m.src)) << 48) |
        (static_cast<std::uint64_t>(static_cast<std::uint16_t>(m.dst)) << 32) |
        (m.seq & 0xffffffffull);
    out.push_back({sim::TimePoint(m.t_disp), m.src, id, true});
    out.push_back({sim::TimePoint(m.t_recv), m.dst, id, false});
  }
  std::sort(out.begin(), out.end(),
            [](const FlowArrowEvent& x, const FlowArrowEvent& y) {
              if (x.t != y.t) return x.t < y.t;
              if (x.id != y.id) return x.id < y.id;
              return x.begin && !y.begin;  // "s" precedes its "f" at equal t
            });
  return out;
}

// ---------------------------------------------------------- JSON profile --

namespace {

void put_totals(std::ostringstream& os, const SegmentTotals& t) {
  os << "\"messages\": " << t.messages << ", \"e2e_ns\": " << t.e2e_ns;
  for (std::size_t i = 0; i < kSegmentCount; ++i) {
    os << ", \"" << to_string(static_cast<Segment>(i))
       << "_ns\": " << t.seg[i];
  }
}

void put_message(std::ostringstream& os, const MessageProfile& m) {
  os << "{\"src\": " << m.src << ", \"dst\": " << m.dst
     << ", \"seq\": " << m.seq << ", \"kind\": " << int(m.msg_kind)
     << ", \"flags\": " << int(m.flags) << ", \"bytes\": " << m.bytes
     << ", \"n_retx\": " << m.n_retx << ", \"t_post_ns\": " << m.t_post
     << ", \"t_matched_ns\": " << m.t_matched
     << ", \"e2e_ns\": " << m.e2e();
  for (std::size_t i = 0; i < kSegmentCount; ++i) {
    os << ", \"" << to_string(static_cast<Segment>(i))
       << "_ns\": " << m.seg[i];
  }
  os << "}";
}

}  // namespace

std::string profile_to_json(const ProfileAnalysis& a, std::string_view label) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"mvflow.prof.v1\",\n  \"label\": \""
     << json::escape(label) << "\",\n  \"exact\": " << (a.exact ? 1 : 0)
     << ",\n  \"incomplete\": " << a.incomplete << ",\n  \"payload\": {";
  put_totals(os, a.payload);
  os << "},\n  \"control\": {";
  put_totals(os, a.control);
  os << "},\n  \"connections\": [";
  for (std::size_t i = 0; i < a.connections.size(); ++i) {
    const ConnectionBlame& c = a.connections[i];
    os << (i == 0 ? "" : ",") << "\n    {\"src\": " << c.src
       << ", \"dst\": " << c.dst << ", ";
    put_totals(os, c.totals);
    os << "}";
  }
  os << "\n  ],\n";

  // The heaviest messages, by end-to-end latency (ties broken canonically);
  // capped so a long profiled run stays a reviewable document — the totals
  // above remain exact over every message regardless.
  constexpr std::size_t kTopCap = 256;
  std::vector<const MessageProfile*> top;
  top.reserve(a.messages.size());
  for (const MessageProfile& m : a.messages) top.push_back(&m);
  std::stable_sort(top.begin(), top.end(),
                   [](const MessageProfile* x, const MessageProfile* y) {
                     return x->e2e() > y->e2e();
                   });
  const std::size_t shown = std::min(top.size(), kTopCap);
  os << "  \"top_capped\": " << (top.size() > kTopCap ? 1 : 0)
     << ",\n  \"top_messages\": [";
  for (std::size_t i = 0; i < shown; ++i) {
    os << (i == 0 ? "" : ",") << "\n    ";
    put_message(os, *top[i]);
  }
  os << "\n  ],\n  \"critical_path\": [";
  for (std::size_t i = 0; i < a.critical_path.size(); ++i) {
    const CriticalStep& s = a.critical_path[i];
    os << (i == 0 ? "" : ",") << "\n    {\"src\": " << s.src
       << ", \"dst\": " << s.dst << ", \"seq\": " << s.seq
       << ", \"segment\": \"" << to_string(s.segment)
       << "\", \"ns\": " << s.ns << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

bool write_profile(const std::string& path, const ProfileAnalysis& a,
                   std::string_view label) {
  const std::string doc = profile_to_json(a, label);
  if (path == "-") {
    std::cout << doc << std::flush;
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

// ------------------------------------------------- thread-local binding ----

namespace detail {
thread_local constinit Profiler* t_profiler = nullptr;

Profiler& fallback_profiler() noexcept {
  static Profiler fallback;
  return fallback;
}
}  // namespace detail

Profiler* bind_profiler(Profiler* p) noexcept {
  Profiler* prev = detail::t_profiler;
  detail::t_profiler = p;
  return prev;
}

}  // namespace mvflow::obs
