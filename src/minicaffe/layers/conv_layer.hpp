#pragma once
// Convolution layer, Caffe-style: per-sample im2col + sgemm (+ bias).
// This is the layer GLP4NN parallelises (paper §3.3.1: the batch loop of
// Algorithms 1 and 2). Every sample's kernel chain is an independent
// *task* handed to the dispatcher, which decides the stream.
//
// Deterministic parallel gradient accumulation: each sample's weight and
// bias gradient GEMM accumulates into one of `accum_slots` partial
// buffers; a final reduction on the default stream sums the slots in
// canonical ascending order. Slots are lane-owned
// (kern::lane_owned_slots): every sample sharing a slot runs on the same
// stream, so no two streams ever accumulate into one slot concurrently.
// A batch of at most 32 gives each sample its own slot (slot = n), and
// round-robin over a pool whose size divides 32 gives slot = n mod 32 —
// the serial baseline's assignment — so training is bit-identical across
// schedulers whenever the batch is at most 32 or the pool size divides 32
// (the scheduler's strict-repro mode).

#include "minicaffe/layer.hpp"

namespace mc {

class ConvolutionLayer final : public Layer {
 public:
  using Layer::Layer;

  void setup(const std::vector<Blob*>& bottom,
             const std::vector<Blob*>& top) override;
  void forward(const std::vector<Blob*>& bottom,
               const std::vector<Blob*>& top) override;
  void backward(const std::vector<Blob*>& top,
                const std::vector<bool>& propagate_down,
                const std::vector<Blob*>& bottom) override;
  bool accumulates_bottom_diff() const override { return true; }

  int out_height() const { return out_h_; }
  int out_width() const { return out_w_; }
  int accum_slots() const { return accum_slots_; }

 private:
  void ensure_col_lane(int lane);
  void grow_accum_slots(int slots);

  int num_ = 0, channels_ = 0, height_ = 0, width_ = 0;
  int out_h_ = 0, out_w_ = 0;
  int kernel_dim_ = 0;  // Ci * kh * kw
  int accum_slots_ = 1;

  std::vector<DeviceBuffer<float>> col_lanes_;
  std::vector<kern::Lane> lanes_;  // backward scratch: each task's lane
  std::vector<int> slots_;         // backward scratch: each task's gradient slot
  DeviceBuffer<float> ones_;           // [out_h*out_w], bias gradient helper
  DeviceBuffer<float> weight_partial_;  // [slots, Co, kernel_dim]
  DeviceBuffer<float> bias_partial_;    // [slots, Co]
};

}  // namespace mc
