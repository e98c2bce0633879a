package workloads

import "fmt"

// Threaded generates the threaded linked-list workload: main spawns
// nthreads worker threads and joins them in spawn order; each worker
// builds and counts singly linked lists of every even size up to its own
// bound (thread k gets maxSize - 4k, so the per-thread repetition trees
// are distinguishable in the merged report). All data is thread-private —
// each invocation of the counting loop walks exactly one list — so
// path-counter decode stays exact and the workload qualifies for the
// equivalence corpus.
func Threaded(nthreads, maxSize int) string {
	spawns, joins := "", ""
	for k := 0; k < nthreads; k++ {
		spawns += fmt.Sprintf("    int h%d = spawn Main.work(%d);\n", k, maxSize-4*k)
		joins += fmt.Sprintf("    join h%d;\n", k)
	}
	return fmt.Sprintf(`
class Cell { Cell next; int value; Cell(int value) { this.value = value; } }
class Main {
  public static void main() {
%s%s    print("joined");
  }
  static void work(int maxSize) {
    for (int size = 2; size <= maxSize; size = size + 2) {
      Cell head = build(size);
      check(count(head) == size);
    }
  }
  static Cell build(int size) {
    Cell head = null;
    for (int i = 0; i < size; i++) {
      Cell x = new Cell(rand(1000));
      x.next = head;
      head = x;
    }
    return head;
  }
  static int count(Cell head) {
    int n = 0;
    Cell cur = head;
    while (cur != null) { n = n + 1; cur = cur.next; }
    return n;
  }
}`, spawns, joins)
}

// SharedArrayThread is a program whose spawned thread reads an array the
// main thread filled, after allocating and writing an array of its own: a
// spawned VM shares the live heap, so the thread's profiler meets entity
// ids of two threads, 2^40 apart (see events.SpanShift).
func SharedArrayThread() string {
	return `
class Main {
  public static void main() {
    int[] a = new int[16];
    for (int i = 0; i < 16; i++) { a[i] = rand(100); }
    int h = spawn Main.work(a);
    join h;
    print("joined");
  }
  static void work(int[] a) {
    int[] b = new int[8];
    for (int i = 0; i < 8; i++) { b[i] = i; }
    int s = 0;
    for (int i = 0; i < 16; i++) { s = s + a[i]; }
    print(s);
  }
}`
}

// SharedListThread is SharedArrayThread through a linked structure: the
// thread builds a Cell list of its own, then traverses the list main
// built.
func SharedListThread() string {
	return `
class Cell { Cell next; int value; Cell(int value) { this.value = value; } }
class Main {
  public static void main() {
    Cell head = build(12);
    int h = spawn Main.work(head);
    join h;
    print("joined");
  }
  static Cell build(int size) {
    Cell head = null;
    for (int i = 0; i < size; i++) {
      Cell x = new Cell(rand(1000));
      x.next = head;
      head = x;
    }
    return head;
  }
  static int count(Cell head) {
    int n = 0;
    Cell cur = head;
    while (cur != null) { n = n + 1; cur = cur.next; }
    return n;
  }
  static void work(Cell shared) {
    Cell own = build(6);
    print(count(own) + count(shared));
  }
}`
}
