#include "minicaffe/layers/conv_layer.hpp"

#include <algorithm>

#include "kernels/blas.hpp"
#include "kernels/cpu_math.hpp"
#include "kernels/nn.hpp"

namespace mc {

void ConvolutionLayer::setup(const std::vector<Blob*>& bottom,
                             const std::vector<Blob*>& top) {
  GLP_REQUIRE(bottom.size() == 1 && top.size() == 1,
              "Convolution expects one bottom and one top");
  const LayerParams& p = spec_.params;
  GLP_REQUIRE(p.num_output > 0 && p.kernel_size > 0,
              "Convolution needs num_output and kernel_size");

  num_ = bottom[0]->num();
  channels_ = bottom[0]->channels();
  height_ = bottom[0]->height();
  width_ = bottom[0]->width();
  out_h_ = kern::cpu::conv_out_size(height_, p.kernel_size, p.pad, p.stride);
  out_w_ = kern::cpu::conv_out_size(width_, p.kernel_size, p.pad, p.stride);
  GLP_REQUIRE(out_h_ > 0 && out_w_ > 0,
              "Convolution output collapses to zero for " << spec_.name);
  GLP_REQUIRE(p.group >= 1 && channels_ % p.group == 0 &&
                  p.num_output % p.group == 0,
              "group " << p.group << " must divide input channels "
                       << channels_ << " and num_output " << p.num_output);
  // kernel_dim_ is the GEMM K dimension *per group*.
  kernel_dim_ = (channels_ / p.group) * p.kernel_size * p.kernel_size;
  // One gradient slot per sample up to kern::kSharedSlots, then shared.
  accum_slots_ = std::min(kern::kSharedSlots, num_);

  top[0]->reshape({num_, p.num_output, out_h_, out_w_});

  if (param_blobs_.empty()) {
    param_blobs_.push_back(
        std::make_shared<Blob>(*ec_->ctx, std::vector<int>{p.num_output, kernel_dim_}));
    param_blobs_.push_back(
        std::make_shared<Blob>(*ec_->ctx, std::vector<int>{p.num_output}));
    if (ec_->numeric()) {
      fill_blob(p.weight_filler, ec_->rng, *param_blobs_[0]);
      fill_blob(p.bias_filler, ec_->rng, *param_blobs_[1]);
    }
  }

  // Gradient-accumulation scratch is backward-only; forward-only serving
  // sessions never pay for it.
  if (!ec_->inference) {
    const std::size_t spatial = static_cast<std::size_t>(out_h_) * out_w_;
    ones_.allocate(*ec_->ctx, spatial);
    if (ec_->numeric()) kern::cpu::fill(spatial, 1.0f, ones_.data());

    weight_partial_.allocate(*ec_->ctx, static_cast<std::size_t>(accum_slots_) *
                                            p.num_output * kernel_dim_);
    bias_partial_.allocate(*ec_->ctx, static_cast<std::size_t>(accum_slots_) *
                                          p.num_output);
  }
}

void ConvolutionLayer::ensure_col_lane(int lane) {
  // The col buffer spans ALL input channels (kernel_dim_ is per group).
  const std::size_t col_count = static_cast<std::size_t>(kernel_dim_) *
                                spec_.params.group * out_h_ * out_w_;
  while (static_cast<int>(col_lanes_.size()) <= lane) {
    col_lanes_.emplace_back(*ec_->ctx, col_count);
  }
}

void ConvolutionLayer::forward(const std::vector<Blob*>& bottom,
                               const std::vector<Blob*>& top) {
  const LayerParams& p = spec_.params;
  const float* bottom_data = bottom[0]->data();
  float* top_data = top[0]->mutable_data();
  const float* weights = param_blobs_[0]->data();
  const float* bias = param_blobs_[1]->data();
  const int spatial = out_h_ * out_w_;
  const std::size_t bottom_stride = bottom[0]->sample_size();
  const std::size_t top_stride = top[0]->sample_size();
  // DAG fusion pass: the in-place ReLU that consumes this layer's top is
  // absorbed as a GEMM epilogue (its own forward is skipped). The
  // epilogue is elementwise over each per-sample, per-group output
  // region, and those regions tile the top blob exactly once — so the
  // result is bit-identical to a separate whole-blob activation kernel.
  const float* relu_slope = ec_->relu_epilogue(spec_.name);

  ec_->dispatcher->begin_scope(spec_.name + "/fwd", static_cast<std::size_t>(num_));
  for (int n = 0; n < num_; ++n) {
    const kern::Lane lane = ec_->dispatcher->task_lane(static_cast<std::size_t>(n));
    ensure_col_lane(lane.lane);
    float* col = col_lanes_[static_cast<std::size_t>(lane.lane)].data();
    const kern::Launcher L = launcher("fwd", lane.stream);

    kern::im2col(L, bottom_data + static_cast<std::size_t>(n) * bottom_stride,
                 channels_, height_, width_, p.kernel_size, p.kernel_size, p.pad,
                 p.pad, p.stride, p.stride, col);
    // Per group g: top_g [Co/g x spatial] = W_g [Co/g x kernel_dim] * col_g.
    const int group_out = p.num_output / p.group;
    for (int g = 0; g < p.group; ++g) {
      const float* w_g = weights + static_cast<std::size_t>(g) * group_out * kernel_dim_;
      const float* col_g = col + static_cast<std::size_t>(g) * kernel_dim_ * spatial;
      float* top_g = top_data + static_cast<std::size_t>(n) * top_stride +
                     static_cast<std::size_t>(g) * group_out * spatial;
      if (relu_slope != nullptr && p.bias_term) {
        kern::sgemm_bias_relu_fused(
            L, group_out, spatial, kernel_dim_, w_g, kernel_dim_, col_g,
            spatial, bias + static_cast<std::size_t>(g) * group_out, top_g,
            spatial, *relu_slope);
      } else if (ec_->fuse_conv_bias && p.bias_term) {
        kern::sgemm_bias_fused(L, group_out, spatial, kernel_dim_, w_g,
                               kernel_dim_, col_g, spatial,
                               bias + static_cast<std::size_t>(g) * group_out,
                               top_g, spatial);
      } else {
        kern::sgemm(L, false, false, group_out, spatial, kernel_dim_, 1.0f, w_g,
                    kernel_dim_, col_g, spatial, 0.0f, top_g, spatial);
        if (p.bias_term) {
          kern::add_bias(L, group_out, spatial,
                         bias + static_cast<std::size_t>(g) * group_out, top_g);
        }
      }
    }
  }
  ec_->dispatcher->end_scope();
}

void ConvolutionLayer::backward(const std::vector<Blob*>& top,
                                const std::vector<bool>& propagate_down,
                                const std::vector<Blob*>& bottom) {
  const LayerParams& p = spec_.params;
  const float* bottom_data = bottom[0]->data();
  const float* top_diff = top[0]->diff();
  const float* weights = param_blobs_[0]->data();
  const int spatial = out_h_ * out_w_;
  const std::size_t bottom_stride = bottom[0]->sample_size();
  const std::size_t top_stride = top[0]->sample_size();
  const std::size_t wcount = param_blobs_[0]->count();
  float* bottom_diff = propagate_down[0] ? bottom[0]->mutable_diff() : nullptr;

  // Zero the partial accumulators on the default stream; the scope's
  // per-sample GEMMs accumulate into them (β = 1).
  const kern::Launcher L0 = launcher("bwd");
  kern::sfill(L0, weight_partial_.count(), 0.0f, weight_partial_.data());
  if (p.bias_term) kern::sfill(L0, bias_partial_.count(), 0.0f, bias_partial_.data());

  ec_->dispatcher->begin_scope(spec_.name + "/bwd", static_cast<std::size_t>(num_));
  for (int n = 0; n < num_; ++n) {
    // All samples of a slot share its lane, so they accumulate in
    // ascending n on one stream (see kern::kSharedSlots).
    const int slot = n % kern::kSharedSlots;
    const kern::Lane lane =
        ec_->dispatcher->task_lane(static_cast<std::size_t>(slot));
    ensure_col_lane(lane.lane);
    float* col = col_lanes_[static_cast<std::size_t>(lane.lane)].data();
    const kern::Launcher L = launcher("bwd", lane.stream);
    const float* tdiff_n = top_diff + static_cast<std::size_t>(n) * top_stride;

    // Recompute col(n) (Caffe does the same — the forward buffer is shared).
    kern::im2col(L, bottom_data + static_cast<std::size_t>(n) * bottom_stride,
                 channels_, height_, width_, p.kernel_size, p.kernel_size, p.pad,
                 p.pad, p.stride, p.stride, col);
    const int group_out = p.num_output / p.group;
    for (int g = 0; g < p.group; ++g) {
      const float* tdiff_g =
          tdiff_n + static_cast<std::size_t>(g) * group_out * spatial;
      const float* col_g = col + static_cast<std::size_t>(g) * kernel_dim_ * spatial;
      // dW_g,slot += top_diff_g [Co/g x spatial] * col_g^T
      kern::sgemm(L, false, true, group_out, kernel_dim_, spatial, 1.0f,
                  tdiff_g, spatial, col_g, spatial, 1.0f,
                  weight_partial_.data() + static_cast<std::size_t>(slot) * wcount +
                      static_cast<std::size_t>(g) * group_out * kernel_dim_,
                  kernel_dim_);
    }
    if (p.bias_term) {
      // db_slot += top_diff(n) * ones
      kern::sgemm(L, false, false, p.num_output, 1, spatial, 1.0f, tdiff_n,
                  spatial, ones_.data(), 1, 1.0f,
                  bias_partial_.data() +
                      static_cast<std::size_t>(slot) * p.num_output,
                  1);
    }
    if (bottom_diff != nullptr) {
      // col_diff_g = W_g^T [kernel_dim x Co/g] * top_diff_g; reuses the col
      // buffer (safe: the dW GEMMs above are ordered first on this stream).
      for (int g = 0; g < p.group; ++g) {
        const float* w_g =
            weights + static_cast<std::size_t>(g) * group_out * kernel_dim_;
        const float* tdiff_g =
            tdiff_n + static_cast<std::size_t>(g) * group_out * spatial;
        float* col_g = col + static_cast<std::size_t>(g) * kernel_dim_ * spatial;
        kern::sgemm(L, true, false, kernel_dim_, spatial, group_out, 1.0f, w_g,
                    kernel_dim_, tdiff_g, spatial, 0.0f, col_g, spatial);
      }
      kern::col2im(L, col, channels_, height_, width_, p.kernel_size,
                   p.kernel_size, p.pad, p.pad, p.stride, p.stride,
                   bottom_diff + static_cast<std::size_t>(n) * bottom_stride);
    }
  }
  ec_->dispatcher->end_scope();

  // Canonical ascending-slot reduction into the parameter diffs.
  kern::reduce_lanes(L0, accum_slots_, wcount, weight_partial_.data(),
                     param_blobs_[0]->mutable_diff());
  if (p.bias_term) {
    kern::reduce_lanes(L0, accum_slots_, static_cast<std::size_t>(p.num_output),
                       bias_partial_.data(), param_blobs_[1]->mutable_diff());
  }
}

}  // namespace mc
