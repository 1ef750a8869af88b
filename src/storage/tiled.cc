#include "src/storage/tiled.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace sac::storage {

using runtime::Partition;
using runtime::VInt;
using runtime::VPair;

namespace {

Status CheckDims(int64_t rows, int64_t cols, int64_t block) {
  if (rows <= 0 || cols <= 0) {
    return Status::InvalidArgument("matrix dimensions must be positive");
  }
  if (block <= 0) {
    return Status::InvalidArgument("block size must be positive");
  }
  return Status::OK();
}

}  // namespace

Result<TiledMatrix> RandomTiled(Engine* eng, int64_t rows, int64_t cols,
                                int64_t block, uint64_t seed, double lo,
                                double hi) {
  SAC_RETURN_NOT_OK(CheckDims(rows, cols, block));
  TiledMatrix m{rows, cols, block, nullptr};
  const int64_t gr = m.grid_rows(), gc = m.grid_cols();
  const int nparts = eng->config().default_parallelism;
  Rng base(seed);
  SAC_ASSIGN_OR_RETURN(
      m.tiles,
      eng->GeneratePartitions(
          nparts,
          [=](int p, Partition* out) {
            for (int64_t idx = 0; idx < gr * gc; ++idx) {
              if (idx % nparts != p) continue;
              const int64_t ii = idx / gc, jj = idx % gc;
              la::Tile t(m.tile_rows(ii), m.tile_cols(jj));
              Rng rng = base.Split(static_cast<uint64_t>(idx));
              t.FillRandom(&rng, lo, hi);
              out->push_back(VPair(runtime::VIdx2(ii, jj),
                                   Value::TileVal(std::move(t))));
            }
            return Status::OK();
          },
          "randomTiled"));
  return m;
}

Result<TiledMatrix> RandomSparseTiled(Engine* eng, int64_t rows, int64_t cols,
                                      int64_t block, uint64_t seed,
                                      double density, int int_hi) {
  SAC_RETURN_NOT_OK(CheckDims(rows, cols, block));
  TiledMatrix m{rows, cols, block, nullptr};
  const int64_t gr = m.grid_rows(), gc = m.grid_cols();
  const int nparts = eng->config().default_parallelism;
  Rng base(seed);
  SAC_ASSIGN_OR_RETURN(
      m.tiles,
      eng->GeneratePartitions(
          nparts,
          [=](int p, Partition* out) {
            for (int64_t idx = 0; idx < gr * gc; ++idx) {
              if (idx % nparts != p) continue;
              const int64_t ii = idx / gc, jj = idx % gc;
              la::Tile t(m.tile_rows(ii), m.tile_cols(jj));
              Rng rng = base.Split(static_cast<uint64_t>(idx));
              for (int64_t k = 0; k < t.size(); ++k) {
                if (rng.NextDouble() < density) {
                  t.data()[k] = static_cast<double>(
                      1 + rng.NextBelow(static_cast<uint64_t>(int_hi)));
                }
              }
              out->push_back(VPair(runtime::VIdx2(ii, jj),
                                   Value::TileVal(std::move(t))));
            }
            return Status::OK();
          },
          "randomSparseTiled"));
  return m;
}

Result<BlockVector> RandomBlockVector(Engine* eng, int64_t size, int64_t block,
                                      uint64_t seed, double lo, double hi) {
  SAC_RETURN_NOT_OK(CheckDims(size, 1, block));
  BlockVector v{size, block, nullptr};
  const int64_t g = v.grid();
  const int nparts = eng->config().default_parallelism;
  Rng base(seed);
  SAC_ASSIGN_OR_RETURN(
      v.blocks,
      eng->GeneratePartitions(
          nparts,
          [=](int p, Partition* out) {
            for (int64_t ii = 0; ii < g; ++ii) {
              if (ii % nparts != p) continue;
              la::Tile t(1, v.block_len(ii));
              Rng rng = base.Split(static_cast<uint64_t>(ii));
              t.FillRandom(&rng, lo, hi);
              out->push_back(VPair(VInt(ii), Value::TileVal(std::move(t))));
            }
            return Status::OK();
          },
          "randomBlockVector"));
  return v;
}

Result<TiledMatrix> FromLocal(Engine* eng, const la::Tile& local,
                              int64_t block) {
  SAC_RETURN_NOT_OK(CheckDims(local.rows(), local.cols(), block));
  TiledMatrix m{local.rows(), local.cols(), block, nullptr};
  ValueVec rows;
  for (int64_t ii = 0; ii < m.grid_rows(); ++ii) {
    for (int64_t jj = 0; jj < m.grid_cols(); ++jj) {
      la::Tile t(m.tile_rows(ii), m.tile_cols(jj));
      for (int64_t i = 0; i < t.rows(); ++i) {
        for (int64_t j = 0; j < t.cols(); ++j) {
          t.Set(i, j, local.At(ii * block + i, jj * block + j));
        }
      }
      rows.push_back(
          VPair(runtime::VIdx2(ii, jj), Value::TileVal(std::move(t))));
    }
  }
  m.tiles = eng->Parallelize(std::move(rows),
                             eng->config().default_parallelism);
  return m;
}

Result<la::Tile> ToLocal(Engine* eng, const TiledMatrix& m) {
  SAC_ASSIGN_OR_RETURN(ValueVec rows, eng->Collect(m.tiles));
  la::Tile out(m.rows, m.cols);
  for (const Value& row : rows) {
    const int64_t ii = row.At(0).At(0).AsInt();
    const int64_t jj = row.At(0).At(1).AsInt();
    const la::Tile& t = row.At(1).AsTile();
    if (ii < 0 || ii >= m.grid_rows() || jj < 0 || jj >= m.grid_cols()) {
      return Status::RuntimeError("tile coordinate out of grid");
    }
    for (int64_t i = 0; i < t.rows(); ++i) {
      for (int64_t j = 0; j < t.cols(); ++j) {
        out.Set(ii * m.block + i, jj * m.block + j, t.At(i, j));
      }
    }
  }
  return out;
}

Result<std::vector<double>> ToLocalVector(Engine* eng, const BlockVector& v) {
  SAC_ASSIGN_OR_RETURN(ValueVec rows, eng->Collect(v.blocks));
  std::vector<double> out(static_cast<size_t>(v.size), 0.0);
  for (const Value& row : rows) {
    const int64_t ii = row.At(0).AsInt();
    const la::Tile& t = row.At(1).AsTile();
    for (int64_t j = 0; j < t.cols(); ++j) {
      const int64_t idx = ii * v.block + j;
      if (idx < 0 || idx >= v.size) {
        return Status::RuntimeError("vector block out of range");
      }
      out[static_cast<size_t>(idx)] = t.At(0, j);
    }
  }
  return out;
}

Result<BlockVector> VectorFromLocal(Engine* eng,
                                    const std::vector<double>& data,
                                    int64_t block) {
  SAC_RETURN_NOT_OK(CheckDims(static_cast<int64_t>(data.size()), 1, block));
  BlockVector v{static_cast<int64_t>(data.size()), block, nullptr};
  ValueVec rows;
  for (int64_t ii = 0; ii < v.grid(); ++ii) {
    la::Tile t(1, v.block_len(ii));
    for (int64_t j = 0; j < t.cols(); ++j) {
      t.Set(0, j, data[static_cast<size_t>(ii * block + j)]);
    }
    rows.push_back(VPair(VInt(ii), Value::TileVal(std::move(t))));
  }
  v.blocks =
      eng->Parallelize(std::move(rows), eng->config().default_parallelism);
  return v;
}

Result<CooMatrix> ToCoo(Engine* eng, const TiledMatrix& m) {
  const int64_t block = m.block;
  SAC_ASSIGN_OR_RETURN(
      Dataset entries,
      eng->FlatMap(
          m.tiles,
          [block](const Value& row, ValueVec* out) {
            const int64_t ii = row.At(0).At(0).AsInt();
            const int64_t jj = row.At(0).At(1).AsInt();
            const la::Tile& t = row.At(1).AsTile();
            for (int64_t i = 0; i < t.rows(); ++i) {
              for (int64_t j = 0; j < t.cols(); ++j) {
                out->push_back(
                    VPair(runtime::VIdx2(ii * block + i, jj * block + j),
                          Value::Double(t.At(i, j))));
              }
            }
          },
          "sparsifyTiles"));
  return CooMatrix{m.rows, m.cols, entries};
}

Result<TiledMatrix> TiledFromCoo(Engine* eng, const CooMatrix& coo,
                                 int64_t block) {
  SAC_RETURN_NOT_OK(CheckDims(coo.rows, coo.cols, block));
  TiledMatrix m{coo.rows, coo.cols, block, nullptr};
  // Key every element by its tile coordinate (the paper's tiled builder),
  // shuffle with groupByKey, then assemble dense tiles.
  SAC_ASSIGN_OR_RETURN(
      Dataset keyed,
      eng->Map(
          coo.entries,
          [block](const Value& row) {
            const int64_t i = row.At(0).At(0).AsInt();
            const int64_t j = row.At(0).At(1).AsInt();
            return VPair(runtime::VIdx2(i / block, j / block),
                         VPair(runtime::VIdx2(i % block, j % block),
                               row.At(1)));
          },
          "keyByTile"));
  SAC_ASSIGN_OR_RETURN(Dataset grouped,
                       eng->GroupByKey(keyed, -1, m.partitioner()));
  const TiledMatrix dims = m;
  SAC_ASSIGN_OR_RETURN(
      m.tiles,
      eng->Map(
          grouped,
          [dims](const Value& row) {
            const int64_t ii = row.At(0).At(0).AsInt();
            const int64_t jj = row.At(0).At(1).AsInt();
            la::Tile t(dims.tile_rows(ii), dims.tile_cols(jj));
            for (const Value& kv : row.At(1).AsList()) {
              const int64_t di = kv.At(0).At(0).AsInt();
              const int64_t dj = kv.At(0).At(1).AsInt();
              if (di >= 0 && di < t.rows() && dj >= 0 && dj < t.cols()) {
                t.Set(di, dj, kv.At(1).AsDouble());
              }
            }
            return VPair(row.At(0), Value::TileVal(std::move(t)));
          },
          "buildTiles"));
  return m;
}

Result<CooMatrix> RandomCoo(Engine* eng, int64_t rows, int64_t cols,
                            uint64_t seed, double lo, double hi,
                            int num_partitions) {
  SAC_RETURN_NOT_OK(CheckDims(rows, cols, 1));
  if (num_partitions <= 0) num_partitions = eng->config().default_parallelism;
  Rng base(seed);
  const int nparts = num_partitions;
  SAC_ASSIGN_OR_RETURN(
      Dataset entries,
      eng->GeneratePartitions(
          nparts,
          [=](int p, Partition* out) {
            Rng rng = base.Split(static_cast<uint64_t>(p));
            for (int64_t i = p; i < rows; i += nparts) {
              for (int64_t j = 0; j < cols; ++j) {
                out->push_back(VPair(runtime::VIdx2(i, j),
                                     Value::Double(rng.Uniform(lo, hi))));
              }
            }
            return Status::OK();
          },
          "randomCoo"));
  return CooMatrix{rows, cols, entries};
}

Result<ValueVec> SparsifyLocal(Engine* eng, const TiledMatrix& m) {
  SAC_ASSIGN_OR_RETURN(CooMatrix coo, ToCoo(eng, m));
  return eng->Collect(coo.entries);
}

Result<double> MaxAbsDiff(Engine* eng, const TiledMatrix& a,
                          const TiledMatrix& b) {
  if (a.rows != b.rows || a.cols != b.cols) {
    return Status::InvalidArgument("shape mismatch in MaxAbsDiff");
  }
  SAC_ASSIGN_OR_RETURN(la::Tile la_, ToLocal(eng, a));
  SAC_ASSIGN_OR_RETURN(la::Tile lb, ToLocal(eng, b));
  double best = 0.0;
  for (int64_t i = 0; i < la_.size(); ++i) {
    best = std::max(best, std::fabs(la_.data()[i] - lb.data()[i]));
  }
  return best;
}

}  // namespace sac::storage
