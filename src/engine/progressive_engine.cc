#include "engine/progressive_engine.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <utility>

#include "core/macros.h"
#include "engine/resolver.h"
#include "obs/fault_injection.h"
#include "obs/telemetry.h"
#include "progressive/gs_psn.h"
#include "progressive/ls_psn.h"
#include "progressive/pbs.h"
#include "progressive/pps.h"
#include "progressive/psn.h"
#include "progressive/sa_psab.h"
#include "progressive/sa_psn.h"
#include "progressive/workflow.h"

namespace sper {

std::string_view ToString(MethodId id) {
  switch (id) {
    case MethodId::kPsn:
      return "PSN";
    case MethodId::kSaPsn:
      return "SA-PSN";
    case MethodId::kSaPsab:
      return "SA-PSAB";
    case MethodId::kLsPsn:
      return "LS-PSN";
    case MethodId::kGsPsn:
      return "GS-PSN";
    case MethodId::kPbs:
      return "PBS";
    case MethodId::kPps:
      return "PPS";
  }
  return "?";
}

bool MethodHasBatchRefills(MethodId id) {
  return id == MethodId::kPbs || id == MethodId::kPps;
}

std::optional<MethodId> ParseMethodId(std::string_view name) {
  // Case-insensitive, and '_' is accepted for '-' so shell-friendly
  // spellings like "pps" or "sa_psn" parse.
  const auto canonical = [](std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '_') c = '-';
      out.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
    return out;
  };
  const std::string wanted = canonical(name);
  for (MethodId id :
       {MethodId::kPsn, MethodId::kSaPsn, MethodId::kSaPsab,
        MethodId::kLsPsn, MethodId::kGsPsn, MethodId::kPbs, MethodId::kPps}) {
    if (wanted == ToString(id)) return id;
  }
  return std::nullopt;
}

ProgressiveEngine::ProgressiveEngine(const ProfileStore& store,
                                     const ResolverOptions& options)
    : budget_(options.budget) {
  const obs::Stopwatch init_watch;
  const std::size_t num_threads = std::max<std::size_t>(options.num_threads, 1);
  const obs::TelemetryScope& scope = options.telemetry;

  // The blocking workflow of the equality-based methods, timed per step.
  // Its phases land in stats_.phases before "method_build" (the emitter
  // construction that follows it); finer method sub-phases
  // ("block_scheduling", "edge_weighting", "profile_scheduling") are
  // recorded registry-side by the callees themselves.
  const auto run_workflow = [&](const ProfileStore& s) {
    TokenWorkflowOptions workflow = options.workflow;
    workflow.num_threads = num_threads;
    workflow.telemetry = scope;
    TokenWorkflowTiming timing;
    BlockCollection blocks = BuildTokenWorkflowBlocks(s, workflow, &timing);
    stats_.phases.push_back({"token_blocking", timing.token_blocking_seconds});
    if (workflow.enable_purging) {
      stats_.phases.push_back({"block_purging", timing.purging_seconds});
    }
    if (workflow.enable_filtering) {
      stats_.phases.push_back({"block_filtering", timing.filtering_seconds});
    }
    stats_.num_blocks = blocks.size();
    stats_.aggregate_cardinality = blocks.AggregateCardinality();
    return blocks;
  };

  std::optional<BlockCollection> workflow_blocks;
  if (MethodHasBatchRefills(options.method)) {
    workflow_blocks.emplace(run_workflow(store));
  }

  double method_seconds = 0.0;
  {
    obs::ScopedPhase method_phase(scope, "method_build", &method_seconds);
    switch (options.method) {
    case MethodId::kPsn:
      SPER_CHECK(options.schema_key != nullptr &&
                 "kPsn requires ResolverOptions::schema_key");
      inner_ = std::make_unique<PsnEmitter>(store, options.schema_key,
                                            options.list);
      break;
    case MethodId::kSaPsn:
      inner_ = std::make_unique<SaPsnEmitter>(store, options.list);
      break;
    case MethodId::kSaPsab:
      inner_ = std::make_unique<SaPsabEmitter>(store, options.suffix);
      break;
    case MethodId::kLsPsn:
      inner_ = std::make_unique<LsPsnEmitter>(store, options.list);
      break;
    case MethodId::kGsPsn: {
      GsPsnOptions gs;
      gs.wmax = options.gs_wmax;
      gs.list = options.list;
      inner_ = std::make_unique<GsPsnEmitter>(store, gs);
      break;
    }
    case MethodId::kPbs: {
      PbsOptions pbs;
      pbs.scheme = options.scheme;
      pbs.num_threads = num_threads;
      pbs.telemetry = scope;
      inner_ = std::make_unique<PbsEmitter>(store, *workflow_blocks, pbs);
      break;
    }
    case MethodId::kPps: {
      PpsOptions pps;
      pps.scheme = options.scheme;
      pps.kmax = options.pps_kmax;
      pps.num_threads = num_threads;
      pps.telemetry = scope;
      inner_ = std::make_unique<PpsEmitter>(store,
                                            std::move(*workflow_blocks), pps);
      break;
    }
    }
  }
  stats_.phases.push_back({"method_build", method_seconds});
  SPER_CHECK(inner_ != nullptr && "unknown method");
  batch_source_ = dynamic_cast<BatchSource*>(inner_.get());

  stats_.init_seconds = init_watch.ElapsedSeconds();
  scope.RecordSpan("init", init_watch.start(), obs::Stopwatch::Now());
  if (obs::Gauge* total = scope.gauge("phase.init_seconds");
      total != nullptr) {
    total->Add(stats_.init_seconds);
  }
}

PullStatus ProgressiveEngine::Poison(std::exception_ptr error) {
  std::string what = "unknown error";
  try {
    std::rethrow_exception(std::move(error));
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  status_ = Status::Internal("refill producer failed (engine, batch " +
                             std::to_string(batch_index_) + "): " + what);
  return PullStatus::kError;
}

PullStatus ProgressiveEngine::Pull(Comparison& out, const CancelToken& token) {
  if (!status_.ok()) return PullStatus::kError;
  if (drained_ || BudgetExhausted()) return PullStatus::kExhausted;
  const PullStatus pulled = PullUnbudgeted(out, token);
  if (pulled == PullStatus::kOk) ++emitted_;
  return pulled;
}

PullStatus ProgressiveEngine::PullUnbudgeted(Comparison& out,
                                             const CancelToken& token) {
  if (batch_source_ != nullptr) {
    // Identical sequence to inner_->Next() per the BatchSource contract,
    // but with the cancellation check and failure containment at the
    // refill boundary (a refill is the unit of work a token can skip
    // without corrupting method state).
    while (batch_.Empty()) {
      if (token.valid() && token.cancelled()) return PullStatus::kCancelled;
      try {
        SPER_FAULT_HIT("refill");
        if (!batch_source_->ProduceBatch(batch_)) {
          return PullStatus::kExhausted;
        }
        ++batch_index_;
      } catch (...) {
        return Poison(std::current_exception());
      }
    }
    out = batch_.PopFirst();
    return PullStatus::kOk;
  }
  // Sort-based methods: every Next() is one bounded unit of work.
  if (token.valid() && token.cancelled()) return PullStatus::kCancelled;
  try {
    std::optional<Comparison> next = inner_->Next();
    if (!next.has_value()) return PullStatus::kExhausted;
    out = *next;
    return PullStatus::kOk;
  } catch (...) {
    return Poison(std::current_exception());
  }
}

}  // namespace sper
