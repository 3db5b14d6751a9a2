#pragma once
// Deconvolution (transposed convolution), Caffe-style: the forward pass
// is convolution's backward-data path (GEMM + col2im per sample) and the
// backward-data pass is im2col + GEMM. Like Convolution it exposes
// batch-level parallelism, so it is dispatched through the GLP4NN
// scheduler — demonstrating the network-agnostic claim on a layer the
// paper never ran.

#include "minicaffe/layer.hpp"

namespace mc {

class DeconvolutionLayer final : public Layer {
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
  int kernel_dim_ = 0;  // num_output * kh * kw (the GEMM M dimension)
  int accum_slots_ = 1;

  std::vector<DeviceBuffer<float>> col_lanes_;
  DeviceBuffer<float> ones_;
  DeviceBuffer<float> weight_partial_;
  DeviceBuffer<float> bias_partial_;
};

}  // namespace mc
