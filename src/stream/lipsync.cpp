#include "stream/lipsync.hpp"

#include <algorithm>
#include <cmath>

namespace holms::stream {
namespace {

class LipSyncRun {
 public:
  LipSyncRun(const LipSyncConfig& cfg, sim::Simulator& sim, sim::Rng rng)
      : cfg_(cfg), sim_(sim), rng_(rng) {}

  void start() {
    schedule_generation(/*video=*/true, 0);
    schedule_generation(/*video=*/false, 0);
    sim_.schedule_at(cfg_.playout_offset, [this] { video_tick(); });
    sim_.schedule_at(cfg_.playout_offset, [this] { audio_tick(); });
    video_occ_.update(0.0, 0.0);
    audio_occ_.update(0.0, 0.0);
  }

  LipSyncReport report() {
    video_occ_.finish(sim_.now());
    audio_occ_.finish(sim_.now());
    LipSyncReport r = rep_;
    r.in_sync_fraction =
        r.presented ? static_cast<double>(r.in_sync) /
                          static_cast<double>(r.presented)
                    : 0.0;
    r.mean_abs_skew = skew_.count() ? skew_.mean() : 0.0;
    r.max_abs_skew = skew_.count() ? skew_.max() : 0.0;
    r.mean_video_buffer = video_occ_.mean();
    r.mean_audio_buffer = audio_occ_.mean();
    return r;
  }

 private:
  void schedule_generation(bool video, std::uint64_t seq) {
    const StreamPathModel& path = video ? cfg_.video : cfg_.audio;
    const double pts = static_cast<double>(seq) * path.unit_period;
    // Source emits at pts; the unit arrives after the path delay.
    const double delay =
        path.base_delay + std::abs(rng_.normal(0.0, path.jitter_stddev));
    if (!rng_.bernoulli(path.loss_prob)) {
      sim_.schedule_at(pts + delay, [this, video, seq, pts] {
        arrive(video, seq, pts);
      });
    }
    sim_.schedule_at(pts + (video ? cfg_.video : cfg_.audio).unit_period,
                     [this, video, seq] {
                       schedule_generation(video, seq + 1);
                     });
  }

  void arrive(bool video, std::uint64_t seq, double pts) {
    auto& buf = video ? video_buf_ : audio_buf_;
    if (buf.size() >= cfg_.buffer_capacity) buf.pop_front();
    MediaUnit u;
    u.seq = seq;
    u.pts = pts;
    u.arrived_at = sim_.now();
    // Arrivals can be reordered by jitter; keep the buffer pts-sorted.
    auto it = std::upper_bound(
        buf.begin(), buf.end(), u,
        [](const MediaUnit& a, const MediaUnit& b) { return a.pts < b.pts; });
    buf.insert(it, u);
    (video ? video_occ_ : audio_occ_)
        .update(sim_.now(), static_cast<double>(buf.size()));
  }

  void video_tick() {
    if (!video_buf_.empty()) {
      const MediaUnit u = video_buf_.front();
      video_buf_.pop_front();
      video_occ_.update(sim_.now(), static_cast<double>(video_buf_.size()));
      video_pts_ = u.pts;
      ++rep_.presented;
      const double skew = video_pts_ - audio_pts_;
      skew_.add(std::abs(skew));
      if (std::abs(skew) <= cfg_.sync_tolerance) {
        ++rep_.in_sync;
      } else {
        resync(skew);
      }
    } else {
      ++rep_.video_late;  // freeze frame
    }
    sim_.schedule_in(cfg_.video.unit_period, [this] { video_tick(); });
  }

  void audio_tick() {
    if (!audio_buf_.empty()) {
      const MediaUnit u = audio_buf_.front();
      audio_buf_.pop_front();
      audio_occ_.update(sim_.now(), static_cast<double>(audio_buf_.size()));
      audio_pts_ = u.pts;
    } else {
      ++rep_.audio_gaps;  // silence insertion
    }
    sim_.schedule_in(cfg_.audio.unit_period, [this] { audio_tick(); });
  }

  // Skip units of the lagging stream so the next presentations realign —
  // the "resynchronization at precise time instances" action of §2.1.
  void resync(double skew) {
    ++rep_.resyncs;
    if (skew > 0.0) {
      // Video ahead: fast-forward audio.
      while (!audio_buf_.empty() && audio_buf_.front().pts < video_pts_) {
        audio_buf_.pop_front();
      }
      audio_occ_.update(sim_.now(), static_cast<double>(audio_buf_.size()));
      if (!audio_buf_.empty()) audio_pts_ = audio_buf_.front().pts;
    } else {
      while (!video_buf_.empty() && video_buf_.front().pts < audio_pts_) {
        video_buf_.pop_front();
      }
      video_occ_.update(sim_.now(), static_cast<double>(video_buf_.size()));
    }
  }

  LipSyncConfig cfg_;
  sim::Simulator& sim_;
  sim::Rng rng_;
  std::deque<MediaUnit> video_buf_;
  std::deque<MediaUnit> audio_buf_;
  double video_pts_ = 0.0;
  double audio_pts_ = 0.0;
  LipSyncReport rep_;
  sim::OnlineStats skew_;
  sim::TimeWeightedStats video_occ_;
  sim::TimeWeightedStats audio_occ_;
};

}  // namespace

LipSyncReport run_lipsync(const LipSyncConfig& cfg, double duration,
                          std::uint64_t seed) {
  sim::Simulator sim;
  LipSyncRun run(cfg, sim, sim::Rng(seed));
  run.start();
  sim.run(duration);
  return run.report();
}

}  // namespace holms::stream
