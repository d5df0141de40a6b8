// Direct timed calls into lower-layer public functions at a workload's real
// shapes: the per-layer numbers a whole training run cannot isolate.
#pragma once

#include <cstddef>

namespace perfbench {

struct ProbeResults {
  double matmul_gmacs = 0.0;        // matmul_nt + matmul_tn + matmul, Linear 48x48, B=16
  double conv2d_gmacs = 0.0;        // VGG11 stand-in conv1+conv2, forward + backward
  double grad_change_us = 0.0;      // RelativeGradChange::update_from_grad
  double codec_transform_us = 0.0;  // Top-k 1% codec_transform
  double wire_frame_us = 0.0;       // dense encode_chunk + decode_chunk
  double des_yield_us = 0.0;        // EventLoop::yield_current round trip
};

/// Runs each probe for about `seconds_each` and reports the median call.
/// `payload` is the workload's parameter count, `workers` its N.
ProbeResults run_probes(size_t payload, size_t workers, double seconds_each);

}  // namespace perfbench
