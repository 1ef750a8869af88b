#include "src/storage/sparse_tiled.h"

#include <unordered_map>

#include "src/la/kernels.h"

namespace sac::storage {

using runtime::Dataset;
using runtime::Value;
using runtime::ValueVec;
using runtime::VInt;
using runtime::VPair;

Result<SparseTiledMatrix> Compress(Engine* eng, const TiledMatrix& m) {
  SAC_ASSIGN_OR_RETURN(
      Dataset tiles,
      eng->FlatMap(
          m.tiles,
          [](const Value& row, ValueVec* out) {
            la::SparseTile st = la::SparseTile::FromDense(row.At(1).AsTile());
            if (st.nnz() == 0) return;  // all-zero tiles vanish
            out->push_back(
                VPair(row.At(0), Value::SparseTileVal(std::move(st))));
          },
          "compressTiles"));
  return SparseTiledMatrix{m.rows, m.cols, m.block, tiles};
}

Result<TiledMatrix> Decompress(Engine* eng, const SparseTiledMatrix& m) {
  SAC_ASSIGN_OR_RETURN(
      Dataset tiles,
      eng->Map(
          m.tiles,
          [](const Value& row) {
            return VPair(row.At(0),
                         Value::TileVal(row.At(1).AsSparseTile().ToDense()));
          },
          "decompressTiles"));
  // Missing (all-zero) tiles stay missing; ToLocal fills zeros.
  return TiledMatrix{m.rows, m.cols, m.block, tiles};
}

Result<int64_t> Nnz(Engine* eng, const SparseTiledMatrix& m) {
  SAC_ASSIGN_OR_RETURN(
      Dataset counts,
      eng->Map(m.tiles, [](const Value& row) {
        return Value::Int(row.At(1).AsSparseTile().nnz());
      }));
  SAC_ASSIGN_OR_RETURN(ValueVec rows, eng->Collect(counts));
  int64_t total = 0;
  for (const Value& v : rows) total += v.AsInt();
  return total;
}

Result<int64_t> PayloadBytes(Engine* eng, const SparseTiledMatrix& m) {
  SAC_ASSIGN_OR_RETURN(
      Dataset sizes,
      eng->Map(m.tiles, [](const Value& row) {
        return Value::Int(
            static_cast<int64_t>(row.At(1).AsSparseTile().PayloadBytes()));
      }));
  SAC_ASSIGN_OR_RETURN(ValueVec rows, eng->Collect(sizes));
  int64_t total = 0;
  for (const Value& v : rows) total += v.AsInt();
  return total;
}

Result<BlockVector> SpMatVec(Engine* eng, const SparseTiledMatrix& a,
                             const BlockVector& x) {
  if (a.cols != x.size || a.block != x.block) {
    return Status::InvalidArgument("SpMatVec dimension/block mismatch");
  }
  // Key sparse tiles by column panel, join with the vector blocks.
  SAC_ASSIGN_OR_RETURN(
      Dataset keyed,
      eng->Map(
          a.tiles,
          [](const Value& row) {
            return VPair(row.At(0).At(1),
                         VPair(row.At(0).At(0), row.At(1)));
          },
          "keyByColPanel"));
  SAC_ASSIGN_OR_RETURN(Dataset joined,
                       eng->Join(keyed, x.blocks, -1, x.partitioner()));
  SAC_ASSIGN_OR_RETURN(
      Dataset partials,
      eng->Map(
          joined,
          [](const Value& row) {
            const Value& av = row.At(1).At(0);
            const la::SparseTile& t = av.At(1).AsSparseTile();
            const la::Tile& xb = row.At(1).At(1).AsTile();
            la::Tile y(1, t.rows());
            la::SpMV(t, xb, &y);
            return VPair(av.At(0), Value::TileVal(std::move(y)));
          },
          "spmvPartials"));
  SAC_ASSIGN_OR_RETURN(
      Dataset reduced,
      eng->ReduceByKey(
          partials,
          [](const Value& p, const Value& q) {
            Value acc = p;
            la::AddInPlace(acc.MutableTile(), q.AsTile());
            return acc;
          },
          -1, Partitioner::Grid({a.grid_rows()})));
  return BlockVector{a.rows, a.block, reduced};
}

Result<TiledMatrix> SpMultiply(Engine* eng, const SparseTiledMatrix& a,
                               const TiledMatrix& b) {
  if (a.cols != b.rows || a.block != b.block) {
    return Status::InvalidArgument("SpMultiply dimension/block mismatch");
  }
  const int64_t block = a.block;
  const int64_t out_rows = a.rows, out_cols = b.cols;
  const int64_t out_gr = CeilDiv(out_rows, block);
  const int64_t out_gc = CeilDiv(out_cols, block);
  SAC_ASSIGN_OR_RETURN(
      Dataset as,
      eng->FlatMap(
          a.tiles,
          [out_gc](const Value& row, ValueVec* out) {
            for (int64_t q = 0; q < out_gc; ++q) {
              out->push_back(
                  VPair(runtime::VTuple({row.At(0).At(0), VInt(q)}),
                        VPair(row.At(0).At(1), row.At(1))));
            }
          },
          "replicateSparseA"));
  SAC_ASSIGN_OR_RETURN(
      Dataset bs,
      eng->FlatMap(
          b.tiles,
          [out_gr](const Value& row, ValueVec* out) {
            for (int64_t q = 0; q < out_gr; ++q) {
              out->push_back(
                  VPair(runtime::VTuple({VInt(q), row.At(0).At(1)}),
                        VPair(row.At(0).At(0), row.At(1))));
            }
          },
          "replicateDenseB"));
  SAC_ASSIGN_OR_RETURN(
      Dataset cg,
      eng->CoGroup(as, bs, -1, Partitioner::Grid({out_gr, out_gc})));
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
                la::SpGemmAccum(av.At(1).AsSparseTile(), bv->At(1).AsTile(),
                                &acc);
                any = true;
              }
            }
            if (any) {
              outv->push_back(
                  VPair(row.At(0), Value::TileVal(std::move(acc))));
            }
          },
          "sparseSumma"));
  return TiledMatrix{out_rows, out_cols, block, out};
}

}  // namespace sac::storage
