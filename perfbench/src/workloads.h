// The four benchmark workloads. Each builds its inputs from
// RunConfig::seed, measures for RunConfig::seconds, checks its answers,
// and returns end-to-end metrics (untraced) or per-layer metrics
// (traced replay through the layers' public functions).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/src/harness.h"

namespace perfbench {

Report RunFig2Serve(const RunConfig& config);
Report RunUnion165k(const RunConfig& config);
Report RunReadsUnderWrites(const RunConfig& config);
Report RunRouteChurn(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
