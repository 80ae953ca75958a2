// The study's record path, timed on one set of records: study-cache save
// and load, figure rendering, RVSP spill encode and decode, rollup fold,
// and the merge of two rollups. The traced runs of workloads whose timed
// phase skips part of this path measure the rest here, after the timed
// phase, so every workload reports every study-layer metric from work it
// actually did.
#pragma once

#include <string>

#include "study/study.h"
#include "tracer/record.h"
#include "workload.h"

namespace perfbench {

// Everything the analysis queries render from a loaded study: every figure
// computed from records, the §IV summary, and slice summaries.
std::string render_figures(const rv::study::StudyResult& r);

// Fields of a record that a correct decode or random read must reproduce.
std::string record_key(const rv::tracer::TraceRecord& r);

// Medians over the repetitions of measure_record_path.
struct RecordPathTimes {
  double cache_save_s = 0.0;
  double cache_load_s = 0.0;
  double figures_ms = 0.0;           // render_figures of the loaded cache
  double spill_encode_ns_per_record = 0.0;
  double spill_decode_ns_per_record = 0.0;
  double spill_bytes_per_record = 0.0;
  double fold_ns_per_record = 0.0;
  double rollup_merge_ms = 0.0;      // merge of two user-range rollups
};

// Runs the record path over `result` (saved under `cfg`) a few times, with
// its files in `dir`. Each step is also an output check: the loaded cache
// renders the same figures as `result`, the spill decodes to the same
// records, and the merge of the rollups of the lower and upper half of the
// users renders like one rollup of every record.
RecordPathTimes measure_record_path(const rv::study::StudyConfig& cfg,
                                    const rv::study::StudyResult& result,
                                    const std::string& dir, Checker& checks);

}  // namespace perfbench
