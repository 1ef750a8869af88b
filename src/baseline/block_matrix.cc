#include "src/baseline/block_matrix.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/la/jvmlike.h"
#include "src/storage/tiled.h"

namespace sac::baseline {

using runtime::Dataset;
using runtime::Partitioner;
using runtime::Value;
using runtime::ValueVec;
using runtime::VInt;
using runtime::VPair;

namespace {

Status CheckSameLayout(const BlockMatrix& a, const BlockMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return Status::InvalidArgument("BlockMatrix shape mismatch");
  }
  if (a.block() != b.block()) {
    return Status::InvalidArgument("BlockMatrix block-size mismatch");
  }
  return Status::OK();
}

/// Cogroups two block-keyed datasets the way MLlib's GridPartitioner
/// places them: by grid coordinates over a gr x gc grid, in the inputs'
/// partition count but never more partitions than blocks.
Result<Dataset> GridCoGroup(Engine* eng, const Dataset& a,
                            const Dataset& b, int64_t gr, int64_t gc) {
  const int64_t np = std::min<int64_t>(
      gr * gc, std::max(a->num_partitions(), b->num_partitions()));
  return eng->CoGroup(a, b, static_cast<int>(np), Partitioner::Grid({gr, gc}));
}

}  // namespace

Result<BlockMatrix> BlockMatrix::Add(Engine* eng,
                                     const BlockMatrix& other) const {
  return Axpby(eng, 1.0, 1.0, other);
}

Result<BlockMatrix> BlockMatrix::Axpby(Engine* eng, double alpha, double beta,
                                       const BlockMatrix& other) const {
  SAC_RETURN_NOT_OK(CheckSameLayout(*this, other));
  // MLlib's add cogroups the two block RDDs (a full shuffle of both) and
  // adds per key; a block missing on one side counts as zeros.
  SAC_ASSIGN_OR_RETURN(
      Dataset cg,
      GridCoGroup(eng, blocks_, other.blocks_, storage::CeilDiv(rows_, block_),
                  storage::CeilDiv(cols_, block_)));
  const int64_t rows = rows_, cols = cols_, block = block_;
  SAC_ASSIGN_OR_RETURN(
      Dataset out,
      eng->Map(
          cg,
          [alpha, beta, rows, cols, block](const Value& row) {
            const ValueVec& as = row.At(1).At(0).AsList();
            const ValueVec& bs = row.At(1).At(1).AsList();
            const int64_t bi = row.At(0).At(0).AsInt();
            const int64_t bj = row.At(0).At(1).AsInt();
            const int64_t r = std::min(block, rows - bi * block);
            const int64_t c = std::min(block, cols - bj * block);
            la::Tile zero(r, c);
            const la::Tile& a = as.empty() ? zero : as[0].AsTile();
            const la::Tile& b = bs.empty() ? zero : bs[0].AsTile();
            la::Tile sum;
            la::jvmlike::TileAxpby(alpha, a, beta, b, &sum);
            return VPair(row.At(0), Value::TileVal(std::move(sum)));
          },
          "mllibBlockAdd"));
  return BlockMatrix(rows_, cols_, block_, out);
}

Result<BlockMatrix> BlockMatrix::Multiply(Engine* eng,
                                          const BlockMatrix& other) const {
  if (cols_ != other.rows()) {
    return Status::InvalidArgument("BlockMatrix inner dimension mismatch");
  }
  if (block_ != other.block()) {
    return Status::InvalidArgument("BlockMatrix block-size mismatch");
  }
  const int64_t out_rows = rows_, out_cols = other.cols();
  const int64_t block = block_;
  const int64_t out_gr = storage::CeilDiv(out_rows, block);
  const int64_t out_gc = storage::CeilDiv(out_cols, block);

  // simulateMultiply: A block (i,k) is needed by output blocks (i, *);
  // B block (k,j) by (*, j). Replicate accordingly (MLlib flatMaps with
  // the destination partition set; dense matrices need every panel).
  SAC_ASSIGN_OR_RETURN(
      Dataset as,
      eng->FlatMap(
          blocks_,
          [out_gc](const Value& row, ValueVec* out) {
            const int64_t i = row.At(0).At(0).AsInt();
            const int64_t k = row.At(0).At(1).AsInt();
            for (int64_t j = 0; j < out_gc; ++j) {
              out->push_back(VPair(runtime::VIdx2(i, j),
                                   VPair(VInt(k), row.At(1))));
            }
          },
          "mllibReplicateA"));
  SAC_ASSIGN_OR_RETURN(
      Dataset bs,
      eng->FlatMap(
          other.blocks_,
          [out_gr](const Value& row, ValueVec* out) {
            const int64_t k = row.At(0).At(0).AsInt();
            const int64_t j = row.At(0).At(1).AsInt();
            for (int64_t i = 0; i < out_gr; ++i) {
              out->push_back(VPair(runtime::VIdx2(i, j),
                                   VPair(VInt(k), row.At(1))));
            }
          },
          "mllibReplicateB"));
  SAC_ASSIGN_OR_RETURN(
      Dataset cg,
      GridCoGroup(eng, as, bs, out_gr, out_gc));
  SAC_ASSIGN_OR_RETURN(
      Dataset out,
      eng->FlatMap(
          cg,
          [out_rows, out_cols, block](const Value& row, ValueVec* outv) {
            const ValueVec& a_list = row.At(1).At(0).AsList();
            const ValueVec& b_list = row.At(1).At(1).AsList();
            if (a_list.empty() || b_list.empty()) return;
            std::unordered_map<int64_t, std::vector<const Value*>> b_by_k;
            for (const Value& bv : b_list) {
              b_by_k[bv.At(0).AsInt()].push_back(&bv);
            }
            const int64_t bi = row.At(0).At(0).AsInt();
            const int64_t bj = row.At(0).At(1).AsInt();
            la::Tile acc(std::min(block, out_rows - bi * block),
                         std::min(block, out_cols - bj * block));
            bool any = false;
            for (const Value& av : a_list) {
              auto it = b_by_k.find(av.At(0).AsInt());
              if (it == b_by_k.end()) continue;
              for (const Value* bv : it->second) {
                la::jvmlike::TileGemmAccum(av.At(1).AsTile(),
                                           bv->At(1).AsTile(), &acc);
                any = true;
              }
            }
            if (any) {
              outv->push_back(VPair(row.At(0), Value::TileVal(std::move(acc))));
            }
          },
          "mllibMultiply"));
  return BlockMatrix(out_rows, out_cols, block, out);
}

Result<BlockMatrix> BlockMatrix::Transpose(Engine* eng) const {
  SAC_ASSIGN_OR_RETURN(
      Dataset out,
      eng->Map(
          blocks_,
          [](const Value& row) {
            la::Tile t;
            la::jvmlike::TileTranspose(row.At(1).AsTile(), &t);
            return VPair(runtime::VTuple({row.At(0).At(1), row.At(0).At(0)}),
                         Value::TileVal(std::move(t)));
          },
          "mllibTranspose"));
  return BlockMatrix(cols_, rows_, block_, out);
}

Result<BlockMatrix> BlockMatrix::Scale(Engine* eng, double alpha) const {
  SAC_ASSIGN_OR_RETURN(
      Dataset out,
      eng->Map(
          blocks_,
          [alpha](const Value& row) {
            const la::Tile& t = row.At(1).AsTile();
            la::Tile s(t.rows(), t.cols());
            auto src = la::jvmlike::WrapConst(&t);
            auto dst = la::jvmlike::Wrap(&s);
            for (int64_t i = 0; i < t.rows(); ++i) {
              for (int64_t j = 0; j < t.cols(); ++j) {
                dst->Set(i, j, alpha * src->Get(i, j));
              }
            }
            return VPair(row.At(0), Value::TileVal(std::move(s)));
          },
          "mllibScale"));
  return BlockMatrix(rows_, cols_, block_, out);
}

Result<double> BlockMatrix::FrobeniusSquared(Engine* eng) const {
  SAC_ASSIGN_OR_RETURN(
      Dataset partials,
      eng->Map(
          blocks_,
          [](const Value& row) {
            const la::Tile& t = row.At(1).AsTile();
            double s = 0;
            for (int64_t i = 0; i < t.size(); ++i) {
              s += t.data()[i] * t.data()[i];
            }
            return Value::Double(s);
          },
          "frobenius"));
  SAC_ASSIGN_OR_RETURN(ValueVec rows, eng->Collect(partials));
  double total = 0;
  for (const Value& v : rows) total += v.AsDouble();
  return total;
}

Result<FactorizationState> FactorizationStep(Engine* eng,
                                             const BlockMatrix& r,
                                             const FactorizationState& state,
                                             double gamma, double lambda) {
  // E = R - P Qt
  SAC_ASSIGN_OR_RETURN(BlockMatrix qt, state.q.Transpose(eng));
  SAC_ASSIGN_OR_RETURN(BlockMatrix pqt, state.p.Multiply(eng, qt));
  SAC_ASSIGN_OR_RETURN(BlockMatrix e, r.Sub(eng, pqt));
  // P' = P + gamma (2 E Q - lambda P) = (1 - gamma lambda) P + 2 gamma (E Q)
  SAC_ASSIGN_OR_RETURN(BlockMatrix eq, e.Multiply(eng, state.q));
  SAC_ASSIGN_OR_RETURN(
      BlockMatrix p2, state.p.Axpby(eng, 1.0 - gamma * lambda, 2.0 * gamma, eq));
  // Q' = Q + gamma (2 Et P - lambda Q)
  SAC_ASSIGN_OR_RETURN(BlockMatrix et, e.Transpose(eng));
  SAC_ASSIGN_OR_RETURN(BlockMatrix etp, et.Multiply(eng, state.p));
  SAC_ASSIGN_OR_RETURN(
      BlockMatrix q2, state.q.Axpby(eng, 1.0 - gamma * lambda, 2.0 * gamma, etp));
  return FactorizationState{std::move(p2), std::move(q2)};
}

}  // namespace sac::baseline
