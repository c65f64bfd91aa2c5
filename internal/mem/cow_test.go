package mem

import "testing"

func TestForkCoWIsolation(t *testing.T) {
	phys := NewPhysMemory(0)
	parent := NewAddressSpace(phys, testCosts())
	addr, _ := parent.Mmap(2*PageSize, ProtRead|ProtWrite, "d", true, nil)
	parent.Write(addr, []byte("parent-data"), nil)

	child := parent.ForkCoW(nil)

	// The child sees the pre-fork contents.
	buf := make([]byte, 11)
	if err := child.Read(addr, buf, nil); err != nil || string(buf) != "parent-data" {
		t.Fatalf("child read = %q, %v", buf, err)
	}
	// Child writes do not affect the parent...
	child.Write(addr, []byte("child-data!"), nil)
	parent.Read(addr, buf, nil)
	if string(buf) != "parent-data" {
		t.Errorf("parent sees child write: %q", buf)
	}
	// ...and parent writes do not affect the child.
	parent.Write(addr, []byte("parent-two!"), nil)
	child.Read(addr, buf, nil)
	if string(buf) != "child-data!" {
		t.Errorf("child sees parent write: %q", buf)
	}
	// The break copies every materialised sector, not just the written
	// one, and the copies stay independent afterwards.
	far := addr + PageSize - 8
	parent.Write(far, []byte("parent!!"), nil)
	child2 := parent.ForkCoW(nil)
	child2.Write(addr, []byte("x"), nil)
	parent.Write(far, []byte("changed!"), nil)
	tail := make([]byte, 8)
	child2.Read(far, tail, nil)
	if string(tail) != "parent!!" {
		t.Errorf("child's unwritten sector after COW break = %q, want %q", tail, "parent!!")
	}
	child2.Read(addr, buf, nil)
	if string(buf) != "xarent-two!" {
		t.Errorf("child's written sector after COW break = %q", buf)
	}
}

func TestForkCoWSharesUntilWrite(t *testing.T) {
	phys := NewPhysMemory(0)
	parent := NewAddressSpace(phys, testCosts())
	const pages = 8
	addr, _ := parent.Mmap(pages*PageSize, ProtRead|ProtWrite, "d", true, nil)
	if phys.Allocated() != pages {
		t.Fatalf("allocated = %d", phys.Allocated())
	}
	child := parent.ForkCoW(nil)
	// Fork allocates no frames.
	if phys.Allocated() != pages {
		t.Errorf("fork allocated frames: %d", phys.Allocated())
	}
	// Reads copy nothing.
	child.Read(addr, make([]byte, PageSize), nil)
	if phys.Allocated() != pages {
		t.Errorf("read broke COW: %d", phys.Allocated())
	}
	// One write copies exactly one page.
	child.Write(addr, []byte{1}, nil)
	if phys.Allocated() != pages+1 {
		t.Errorf("after one write: %d frames, want %d", phys.Allocated(), pages+1)
	}
	// Writing the same page again copies nothing further.
	child.Write(addr+8, []byte{2}, nil)
	if phys.Allocated() != pages+1 {
		t.Errorf("second write copied again: %d", phys.Allocated())
	}
}

func TestForkCoWLastOwnerSkipsCopy(t *testing.T) {
	phys := NewPhysMemory(0)
	parent := NewAddressSpace(phys, testCosts())
	addr, _ := parent.Mmap(PageSize, ProtRead|ProtWrite, "d", true, nil)
	child := parent.ForkCoW(nil)
	// Child releases its mapping: the parent becomes sole owner.
	if err := child.Munmap(addr, PageSize); err != nil {
		t.Fatal(err)
	}
	before := phys.Allocated()
	parent.Write(addr, []byte{1}, nil) // breaks COW without copying
	if phys.Allocated() != before {
		t.Errorf("sole-owner write allocated a frame")
	}
}

func TestForkCoWChargesLazily(t *testing.T) {
	phys := NewPhysMemory(0)
	parent := NewAddressSpace(phys, testCosts())
	const pages = 64
	addr, _ := parent.Mmap(pages*PageSize, ProtRead|ProtWrite, "d", true, nil)
	forkCh := &countCharger{}
	child := parent.ForkCoW(forkCh)
	// Fork cost: one walk per page, far below faulting costs.
	if forkCh.total >= pages*testCosts().MinorFault {
		t.Errorf("fork charged %v, want << %v", forkCh.total, pages*testCosts().MinorFault)
	}
	writeCh := &countCharger{}
	child.Write(addr, []byte{1}, writeCh)
	if writeCh.total < testCosts().MinorFault {
		t.Errorf("COW break charged %v, want >= a fault", writeCh.total)
	}
}

func TestGrandchildForkChain(t *testing.T) {
	phys := NewPhysMemory(0)
	a := NewAddressSpace(phys, testCosts())
	addr, _ := a.Mmap(PageSize, ProtRead|ProtWrite, "d", true, nil)
	a.Write(addr, []byte{7}, nil)
	b := a.ForkCoW(nil)
	c := b.ForkCoW(nil)
	// Three spaces share one frame; each write isolates one of them.
	c.Write(addr, []byte{9}, nil)
	buf := make([]byte, 1)
	a.Read(addr, buf, nil)
	if buf[0] != 7 {
		t.Errorf("a = %d", buf[0])
	}
	b.Read(addr, buf, nil)
	if buf[0] != 7 {
		t.Errorf("b = %d", buf[0])
	}
	c.Read(addr, buf, nil)
	if buf[0] != 9 {
		t.Errorf("c = %d", buf[0])
	}
}
