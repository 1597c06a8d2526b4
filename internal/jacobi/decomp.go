package jacobi

// Decomposition of the global grid over processes or chares. The grid
// is split into a px×py×pz block grid chosen to minimize aggregate
// surface area (communication volume), matching the paper's setup
// (§IV-A).

// Face identifiers: axis = face/2, direction = face%2 (0 = minus,
// 1 = plus). Opposite(face) flips the direction.
const (
	FaceXMinus = iota
	FaceXPlus
	FaceYMinus
	FaceYPlus
	FaceZMinus
	FaceZPlus
	NumFaces
)

// Opposite returns the face on the other side of the shared plane.
func Opposite(face int) int { return face ^ 1 }

// BestDims returns the factorization of n into three block-grid
// dimensions minimizing total surface area for the given global grid.
// Ties break lexicographically for determinism.
func BestDims(n int, global [3]int) [3]int {
	best := [3]int{n, 1, 1}
	bestSurf := int64(-1)
	for a := 1; a <= n; a++ {
		if n%a != 0 {
			continue
		}
		rest := n / a
		for b := 1; b <= rest; b++ {
			if rest%b != 0 {
				continue
			}
			c := rest / b
			bx := ceilDiv(global[0], a)
			by := ceilDiv(global[1], b)
			bz := ceilDiv(global[2], c)
			surf := 2 * (int64(bx)*int64(by) + int64(by)*int64(bz) + int64(bx)*int64(bz)) * int64(n)
			if bestSurf < 0 || surf < bestSurf {
				bestSurf = surf
				best = [3]int{a, b, c}
			}
		}
	}
	return best
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Decomp is a block decomposition of the global grid.
type Decomp struct {
	Global [3]int
	Dims   [3]int // block-grid dimensions
}

// NewDecomp decomposes global over n blocks.
func NewDecomp(global [3]int, n int) Decomp {
	return Decomp{Global: global, Dims: BestDims(n, global)}
}

// Count returns the number of blocks.
func (d Decomp) Count() int { return d.Dims[0] * d.Dims[1] * d.Dims[2] }

// Block is one block of the decomposition.
type Block struct {
	D    Decomp
	Idx  [3]int
	Size [3]int // cells per axis
}

// Block returns the block at position idx. Boundary blocks absorb the
// remainder when the global size does not divide evenly.
func (d Decomp) Block(idx [3]int) Block {
	var size [3]int
	for ax := 0; ax < 3; ax++ {
		per := ceilDiv(d.Global[ax], d.Dims[ax])
		lo := idx[ax] * per
		hi := lo + per
		if hi > d.Global[ax] {
			hi = d.Global[ax]
		}
		size[ax] = hi - lo
		if size[ax] < 0 {
			size[ax] = 0
		}
	}
	return Block{D: d, Idx: idx, Size: size}
}

// BlockFlat returns the block at flat index f (x-major, matching
// charm.Array).
func (d Decomp) BlockFlat(f int) Block {
	z := f % d.Dims[2]
	y := (f / d.Dims[2]) % d.Dims[1]
	x := f / (d.Dims[1] * d.Dims[2])
	return d.Block([3]int{x, y, z})
}

// Flatten converts a block index to its flat position.
func (d Decomp) Flatten(idx [3]int) int {
	return (idx[0]*d.Dims[1]+idx[1])*d.Dims[2] + idx[2]
}

// Volume returns the block's cell count.
func (b Block) Volume() int64 {
	return int64(b.Size[0]) * int64(b.Size[1]) * int64(b.Size[2])
}

// FaceCells returns the number of cells on the face along the given
// axis.
func (b Block) FaceCells(axis int) int64 {
	switch axis {
	case 0:
		return int64(b.Size[1]) * int64(b.Size[2])
	case 1:
		return int64(b.Size[0]) * int64(b.Size[2])
	default:
		return int64(b.Size[0]) * int64(b.Size[1])
	}
}

// FaceBytes returns the halo message size for the given face.
func (b Block) FaceBytes(face int) int64 {
	return b.FaceCells(face/2) * ElemBytes
}

// InteriorVolume returns the cell count of the block interior (the part
// updatable without halo data), for the manual-overlap MPI variant.
func (b Block) InteriorVolume() int64 {
	v := int64(1)
	for ax := 0; ax < 3; ax++ {
		s := b.Size[ax] - 2
		if s < 0 {
			s = 0
		}
		v *= int64(s)
	}
	return v
}

// Neighbor is one face-adjacent block.
type Neighbor struct {
	Face int
	Idx  [3]int
}

// Neighbors returns the block's existing face neighbors (non-periodic
// boundaries), ordered by face id for determinism.
func (b Block) Neighbors() []Neighbor {
	var out []Neighbor
	for face := 0; face < NumFaces; face++ {
		if ni, ok := b.neighbor(face); ok {
			out = append(out, Neighbor{Face: face, Idx: ni})
		}
	}
	return out
}

// neighbor returns the index of the block across face, and whether that
// block exists.
func (b Block) neighbor(face int) ([3]int, bool) {
	ax := face / 2
	delta := -1
	if face%2 == 1 {
		delta = 1
	}
	ni := b.Idx
	ni[ax] += delta
	return ni, ni[ax] >= 0 && ni[ax] < b.D.Dims[ax]
}

// TotalFaceCells returns the sum of halo cells over the block's
// existing neighbors (the thread count basis for fused kernels).
func (b Block) TotalFaceCells() int64 {
	var total int64
	for face := 0; face < NumFaces; face++ {
		if _, ok := b.neighbor(face); ok {
			total += b.FaceCells(face / 2)
		}
	}
	return total
}
