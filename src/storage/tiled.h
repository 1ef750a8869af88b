// Distributed block-array storages (Section 5 of the paper):
//
//  * TiledMatrix -- a distributed bag of non-overlapping square tiles,
//    rows shaped ((ii, jj), Tile). Element (i, j) lives in tile
//    (i/N, j/N) at in-tile offset (i%N, j%N). Edge tiles are smaller
//    when a dimension is not a multiple of the block size.
//  * BlockVector -- blocks shaped (ii, Tile(1, len)).
//  * CooMatrix -- the coordinate (sparse) format of Section 4, rows
//    shaped ((i, j), v); the DIABLO-style baseline representation.
//
// Sparsifiers convert a storage to its abstract association list;
// builders construct a storage from one (Section 1.1). Both are provided
// as distributed operators so the planner can splice them into plans, and
// as local conversions for tests and small data.
#ifndef SAC_STORAGE_TILED_H_
#define SAC_STORAGE_TILED_H_

#include <cstdint>
#include <string>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/la/tile.h"
#include "src/runtime/engine.h"

namespace sac::storage {

using runtime::Dataset;
using runtime::Engine;
using runtime::Partitioner;
using runtime::Value;
using runtime::ValueVec;

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// A tiled (block) matrix: RDD of ((ii,jj), Tile).
struct TiledMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t block = 0;  // N, tile side length
  Dataset tiles;

  int64_t grid_rows() const { return CeilDiv(rows, block); }
  int64_t grid_cols() const { return CeilDiv(cols, block); }
  /// Places (ii, jj)-keyed rows by their tile coordinates.
  Partitioner partitioner() const {
    return Partitioner::Grid({grid_rows(), grid_cols()});
  }
  /// Shape of the tile at grid position (ii, jj).
  int64_t tile_rows(int64_t ii) const {
    return std::min(block, rows - ii * block);
  }
  int64_t tile_cols(int64_t jj) const {
    return std::min(block, cols - jj * block);
  }
};

/// A block vector: RDD of (ii, Tile(1, len)).
struct BlockVector {
  int64_t size = 0;
  int64_t block = 0;
  Dataset blocks;

  int64_t grid() const { return CeilDiv(size, block); }
  /// Places ii-keyed rows by their block index.
  Partitioner partitioner() const { return Partitioner::Grid({grid()}); }
  int64_t block_len(int64_t ii) const {
    return std::min(block, size - ii * block);
  }
};

/// Coordinate-format matrix: RDD of ((i,j), v).
struct CooMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  Dataset entries;
};

// ---- construction ---------------------------------------------------------

/// Dense random tiled matrix with values uniform in [lo, hi). Tiles are
/// generated in parallel, each from an independent deterministic stream,
/// so the same seed always produces the same matrix.
Result<TiledMatrix> RandomTiled(Engine* eng, int64_t rows, int64_t cols,
                                int64_t block, uint64_t seed, double lo,
                                double hi);

/// Sparse random tiled matrix: each element is nonzero with probability
/// `density`, values uniform integers in [0, int_hi] (the paper's rating
/// matrix R). Stored dense per tile (block arrays are dense chunks).
Result<TiledMatrix> RandomSparseTiled(Engine* eng, int64_t rows, int64_t cols,
                                      int64_t block, uint64_t seed,
                                      double density, int int_hi);

/// Random block vector.
Result<BlockVector> RandomBlockVector(Engine* eng, int64_t size, int64_t block,
                                      uint64_t seed, double lo, double hi);

/// Splits a local dense matrix into a TiledMatrix.
Result<TiledMatrix> FromLocal(Engine* eng, const la::Tile& local,
                              int64_t block);

/// Gathers a TiledMatrix into a local dense matrix (test/demo sizes only).
Result<la::Tile> ToLocal(Engine* eng, const TiledMatrix& m);

/// Gathers a BlockVector into a dense std::vector<double>.
Result<std::vector<double>> ToLocalVector(Engine* eng, const BlockVector& v);

/// Splits a local dense vector into a BlockVector.
Result<BlockVector> VectorFromLocal(Engine* eng,
                                    const std::vector<double>& data,
                                    int64_t block);

// ---- sparsifier / builder (the type mapping of Section 1.1) ---------------

/// Distributed tile sparsifier: ((ii,jj),A) -> N*N element records
/// ((ii*N+i, jj*N+j), A(i,j)). The inverse of TiledFromCoo.
Result<CooMatrix> ToCoo(Engine* eng, const TiledMatrix& m);

/// Distributed tiled builder: groups ((i,j),v) records by tile coordinate
/// (i/N, j/N) and assembles dense tiles (missing entries are 0).
Result<TiledMatrix> TiledFromCoo(Engine* eng, const CooMatrix& coo,
                                 int64_t block);

/// Random coordinate matrix (dense content) for the COO-vs-tiled ablation.
Result<CooMatrix> RandomCoo(Engine* eng, int64_t rows, int64_t cols,
                            uint64_t seed, double lo, double hi,
                            int num_partitions = -1);

/// Local sparsification for oracle tests: every element as ((i,j),v).
Result<ValueVec> SparsifyLocal(Engine* eng, const TiledMatrix& m);

/// Max |a-b| over all elements of two same-shape tiled matrices.
Result<double> MaxAbsDiff(Engine* eng, const TiledMatrix& a,
                          const TiledMatrix& b);

}  // namespace sac::storage

#endif  // SAC_STORAGE_TILED_H_
