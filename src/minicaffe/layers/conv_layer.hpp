#pragma once
// Convolution layer, Caffe-style: per-sample im2col + sgemm (+ bias).
// This is the layer GLP4NN parallelises (paper §3.3.1: the batch loop of
// Algorithms 1 and 2). Every sample's kernel chain is an independent
// *task* handed to the dispatcher, which decides the stream.
//
// Deterministic parallel gradient accumulation: sample n's weight and
// bias gradient GEMMs accumulate into partial buffer slot
// n mod kern::kSharedSlots, and a final reduction on the default stream
// sums the slots in canonical ascending order. Backward routes sample n
// to the lane of its slot, task_lane(n mod kSharedSlots), so every
// sample of a slot runs on one stream in ascending n: no two streams
// ever accumulate into one slot, and each slot is summed in the serial
// baseline's order. Training is therefore bit-identical across
// schedulers at every batch size and pool size.

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

 private:
  void ensure_col_lane(int lane);

  int num_ = 0, channels_ = 0, height_ = 0, width_ = 0;
  int out_h_ = 0, out_w_ = 0;
  int kernel_dim_ = 0;  // Ci * kh * kw
  int accum_slots_ = 1;

  std::vector<DeviceBuffer<float>> col_lanes_;
  DeviceBuffer<float> ones_;           // [out_h*out_w], bias gradient helper
  DeviceBuffer<float> weight_partial_;  // [slots, Co, kernel_dim]
  DeviceBuffer<float> bias_partial_;    // [slots, Co]
};

}  // namespace mc
