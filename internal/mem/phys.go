package mem

// Frame content is materialised in sectors of sectorSize bytes, each
// allocated on its first write: a first-touch store or a COW break costs
// the host the bytes it writes, not a whole page.
const (
	sectorShift = 8
	sectorSize  = 1 << sectorShift
)

type sector [sectorSize]byte

// Frame is one physical page frame. Unwritten sectors read as zero
// (physical pages are handed out zeroed, as on Linux) and allocate
// nothing, so large sparse mappings stay cheap to simulate.
type Frame struct {
	ID      uint64
	refs    int
	sectors [PageSize / sectorSize]*sector
}

// write copies data into the frame from byte offset off, stopping at the
// page end, and returns the number of bytes copied.
func (f *Frame) write(off int, data []byte) int {
	n := 0
	for n < len(data) && off < PageSize {
		s := f.sectors[off>>sectorShift]
		if s == nil {
			s = new(sector)
			f.sectors[off>>sectorShift] = s
		}
		c := copy(s[off&(sectorSize-1):], data[n:])
		n += c
		off += c
	}
	return n
}

// read fills buf from byte offset off, stopping at the page end, and
// returns the number of bytes copied.
func (f *Frame) read(off int, buf []byte) int {
	n := 0
	for n < len(buf) && off < PageSize {
		i := off & (sectorSize - 1)
		var c int
		if s := f.sectors[off>>sectorShift]; s != nil {
			c = copy(buf[n:], s[i:])
		} else {
			c = min(len(buf)-n, sectorSize-i)
			clear(buf[n : n+c])
		}
		n += c
		off += c
	}
	return n
}

// copyFrom gives the (fresh, all-zero) frame a private copy of src's
// materialised sectors.
func (f *Frame) copyFrom(src *Frame) {
	for i, s := range src.sectors {
		if s != nil {
			cp := *s
			f.sectors[i] = &cp
		}
	}
}

// Refs reports the number of page-table mappings referencing this frame.
func (f *Frame) Refs() int { return f.refs }

// PhysMemory is the physical frame allocator. A single PhysMemory is
// shared by every address space on a simulated machine.
type PhysMemory struct {
	totalFrames uint64
	nextID      uint64
	free        []*Frame
	allocated   uint64

	// Stats.
	allocs uint64
	zeroed uint64
}

// NewPhysMemory creates an allocator with the given capacity in frames.
// capacity == 0 means effectively unlimited (2^40 frames).
func NewPhysMemory(capacityFrames uint64) *PhysMemory {
	if capacityFrames == 0 {
		capacityFrames = 1 << 40
	}
	return &PhysMemory{totalFrames: capacityFrames}
}

// Alloc returns a fresh zeroed frame, or ErrNoMemory when capacity is
// exhausted.
func (pm *PhysMemory) Alloc() (*Frame, error) {
	if n := len(pm.free); n > 0 {
		f := pm.free[n-1]
		pm.free[n-1] = nil
		pm.free = pm.free[:n-1]
		clear(f.sectors[:]) // recycled frames are handed out zeroed
		pm.allocated++
		pm.allocs++
		return f, nil
	}
	if pm.allocated >= pm.totalFrames {
		return nil, ErrNoMemory
	}
	pm.nextID++
	pm.allocated++
	pm.allocs++
	return &Frame{ID: pm.nextID}, nil
}

// Free returns a frame to the allocator. The caller must hold the only
// remaining reference.
func (pm *PhysMemory) Free(f *Frame) {
	if f.refs != 0 {
		panic("mem: freeing frame with live references")
	}
	pm.allocated--
	pm.free = append(pm.free, f)
}

// Get increments a frame's reference count (a new PTE points at it).
func (pm *PhysMemory) Get(f *Frame) { f.refs++ }

// Put decrements a frame's reference count, freeing it at zero.
func (pm *PhysMemory) Put(f *Frame) {
	if f.refs <= 0 {
		panic("mem: Put on frame with no references")
	}
	f.refs--
	if f.refs == 0 {
		pm.Free(f)
	}
}

// Allocated reports the number of frames currently in use.
func (pm *PhysMemory) Allocated() uint64 { return pm.allocated }

// TotalAllocs reports the cumulative number of Alloc calls.
func (pm *PhysMemory) TotalAllocs() uint64 { return pm.allocs }
