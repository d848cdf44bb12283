// Links the counting operator new/delete of bench/bench_util.h into the
// traced harness binary only, so untraced timings pay nothing for them.
#define ECD_BENCH_COUNT_ALLOCS 1
#include "bench/bench_util.h"
