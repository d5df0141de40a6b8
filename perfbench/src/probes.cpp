#include "probes.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "comm/compression.hpp"
#include "comm/event_loop.hpp"
#include "comm/wire_format.hpp"
#include "stats/grad_change.hpp"
#include "tensor/ops.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace selsync;

namespace {

// Calls `body` (which returns the seconds it wants counted) until
// `seconds` of wall time pass, at least 5 times; the median count.
template <class Body>
double median_seconds(double seconds, Body&& body) {
  std::vector<double> samples;
  const int64_t stop = now_ns() + static_cast<int64_t>(seconds * 1e9);
  while (samples.size() < 5 || now_ns() < stop) samples.push_back(body());
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

// Keeps a result live, as benchmark::DoNotOptimize does.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

template <class Fn>
double timed(Fn&& fn) {
  const int64_t begin = now_ns();
  fn();
  return static_cast<double>(now_ns() - begin) * 1e-9;
}

std::vector<float> randn(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

double probe_matmul(double seconds) {
  // One nn::Linear of the ResNet101 stand-in: batch 16, 48 -> 48.
  constexpr size_t kB = 16, kIn = 48, kOut = 48;
  Rng rng(101);
  const Tensor x = Tensor::randn({kB, kIn}, rng);
  const Tensor w = Tensor::randn({kOut, kIn}, rng);
  const Tensor g = Tensor::randn({kB, kOut}, rng);
  const double s = median_seconds(seconds, [&] {
    return timed([&] {
      keep(ops::matmul_nt(x, w).data()[0]);  // forward
      keep(ops::matmul_tn(g, x).data()[0]);  // dW
      keep(ops::matmul(g, w).data()[0]);     // dX
    });
  });
  return 3.0 * kB * kIn * kOut / s * 1e-9;
}

double probe_conv2d(double seconds) {
  // The VGG11 stand-in's two convolutions at batch 16 (3x8x8 inputs).
  struct Conv {
    Tensor input, weight, bias, grad_out;
    double macs;
  };
  Rng rng(102);
  std::vector<Conv> convs;
  const auto add = [&](size_t cin, size_t cout, size_t hw) {
    Conv c{Tensor::randn({16, cin, hw, hw}, rng),
           Tensor::randn({cout, cin, 3, 3}, rng), Tensor::randn({cout}, rng),
           Tensor::randn({16, cout, hw, hw}, rng), 0.0};
    c.macs = 16.0 * cout * hw * hw * cin * 9;
    convs.push_back(std::move(c));
  };
  add(3, 8, 8);
  add(8, 16, 4);
  double macs = 0.0;
  for (const Conv& c : convs) macs += 3.0 * c.macs;  // forward, dX, dW
  const double s = median_seconds(seconds, [&] {
    return timed([&] {
      for (const Conv& c : convs) {
        keep(ops::conv2d(c.input, c.weight, c.bias, 1).data()[0]);
        Tensor gx, gw, gb;
        ops::conv2d_backward(c.input, c.weight, 1, c.grad_out, gx, gw, gb);
        keep(gw.data()[0]);
      }
    });
  });
  return macs / s * 1e-9;
}

double probe_grad_change(size_t payload, double seconds) {
  Rng rng(103);
  const std::vector<float> grad = randn(payload, rng);
  RelativeGradChange gc;
  const double s = median_seconds(seconds, [&] {
    return timed([&] { keep(gc.update_from_grad(grad)); });
  });
  return s * 1e6;
}

double probe_codec(size_t payload, double seconds) {
  Rng rng(104);
  const std::vector<float> grad = randn(payload, rng);
  std::vector<float> data(payload);
  std::vector<float> residual;
  CompressionConfig topk;
  topk.kind = CompressionKind::kTopK;
  topk.topk_fraction = 0.01;
  const double s = median_seconds(seconds, [&] {
    std::copy(grad.begin(), grad.end(), data.begin());
    return timed([&] {
      keep(codec_transform(topk, std::span<float>(data), &residual));
    });
  });
  return s * 1e6;
}

double probe_wire_frame(size_t payload, double seconds) {
  Rng rng(105);
  const std::vector<float> values = randn(payload, rng);
  const CompressionConfig dense;
  const double s = median_seconds(seconds, [&] {
    return timed([&] {
      const std::vector<uint8_t> bytes = wire::encode_chunk(dense, values);
      keep(wire::decode_chunk(dense, bytes.data(), bytes.size(), payload)[0]);
    });
  });
  return s * 1e6;
}

double probe_des_yield(size_t workers, double seconds) {
  // Every fiber yields kSteps times with a rising clock, so each yield is
  // one full publish/heap/switch round trip through the scheduler.
  constexpr size_t kSteps = 100;
  const double s = median_seconds(seconds, [&] {
    EventLoop loop(workers);
    for (size_t r = 0; r < workers; ++r)
      loop.spawn(r, [&loop] {
        for (size_t step = 1; step <= kSteps; ++step)
          loop.yield_current(static_cast<double>(step));
      });
    return timed([&] { loop.run(); });
  });
  return s / static_cast<double>(workers * kSteps) * 1e6;
}

}  // namespace

ProbeResults run_probes(size_t payload, size_t workers, double seconds_each) {
  ProbeResults r;
  r.matmul_gmacs = probe_matmul(seconds_each);
  r.conv2d_gmacs = probe_conv2d(seconds_each);
  r.grad_change_us = probe_grad_change(payload, seconds_each);
  r.codec_transform_us = probe_codec(payload, seconds_each);
  r.wire_frame_us = probe_wire_frame(payload, seconds_each);
  r.des_yield_us = probe_des_yield(workers, seconds_each);
  return r;
}

}  // namespace perfbench
