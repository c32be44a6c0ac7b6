#include "obs/phase.hpp"

#include "obs/thread_stats.hpp"
#include "obs/trace.hpp"
#include "util/memory.hpp"
#include "util/run_context.hpp"

namespace parhde::obs {

Phase::Phase(PhaseTimings& sink, const char* name)
    : sink_(sink),
      name_(name),
      table_(&util::CurrentRunContext()->thread_stats()),
      parent_(table_->ExchangeOpenPhase(this)),
      rss_entry_(PeakRssBytes()),
      start_ns_(Tracer::NowNs()) {}

Phase::~Phase() {
  const std::uint64_t elapsed_ns = Tracer::NowNs() - start_ns_;
  table_->ExchangeOpenPhase(parent_);
  if (parent_ != nullptr) parent_->nested_ns_ += elapsed_ns;
  sink_.Add(name_, static_cast<double>(elapsed_ns - nested_ns_) * 1e-9);
  // Peak RSS is a process high-water mark: nested phases each observe the
  // same growth, so per-phase deltas are an attribution aid, not a
  // partition.
  const std::int64_t rss = PeakRssBytes();
  if (rss_entry_ >= 0 && rss > rss_entry_) {
    table_->AddRssDelta(name_, rss - rss_entry_);
  }
  if (Tracer::Enabled()) Tracer::RecordComplete(name_, start_ns_, elapsed_ns);
}

}  // namespace parhde::obs
