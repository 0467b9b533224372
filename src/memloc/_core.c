/* Compiled core of memloc, the package's only implementation of each of
 * these, for the Python callers named:
 *   memloc_bisect       median-bisection order, by selection, sorting only
 *                       RCB's leaves (kdtree.KdTree, reorder.reorder_rcb)
 *   memloc_kdtree       pruned kd-tree walk (KdTree.walk)
 *   memloc_first_touch  first-touch row order (reorder.reorder_first_touch)
 *   memloc_dtree        decision-tree induction (kernels.gen_dtree_trace)
 *   memloc_node_rows    each tree node's rows in a given row order, with no
 *                       sort (kernels.node_rows)
 *   memloc_quantize     SFC grid quantiser (reorder.reorder_sfc)
 *   memloc_sfc          SFC codes and row order (reorder.reorder_sfc)
 *   memloc_block        page blocking (reorder.block_by_page)
 *   memloc_inject       software-prefetch injection (memsys.inject_sw_prefetch)
 *   memloc_filter       three-level LRU filter, move-to-front sets, with its
 *                       stride prefetcher (memsys.filter_to_dram)
 *   memloc_take         the filter's DRAM trace, the records one level
 *                       served (memsys.filter_to_dram)
 *   memloc_simulate     FR-FCFS-Cap scheduler, which scans its window only
 *                       while a queued request may hit an open row, and
 *                       its all-row-hit bound (dramsim.simulate,
 *                       dramsim.simulate_ideal)
 * Each must give results identical to the Python reference that
 * tests/test_oracles.py or tests/test_dramsim.py compares it against,
 * most of them in tests/reference_models.py.  _core.py compiles this
 * file on first use and loads it with ctypes; without a C compiler
 * memloc cannot build a kd-tree, an RCB, first-touch or SFC order, grow
 * a decision tree, block rows by page, inject prefetches, filter or
 * simulate.
 *
 * Every function writes its results into arrays its caller allocated and
 * sized, and returns an int64_t: memloc_kdtree, which allocates nothing,
 * the next query to walk (nq when it is done); memloc_dtree the number
 * of nodes; memloc_node_rows the entries it wrote, fewer than the nodes'
 * rows when they are not a tree or the order not a permutation;
 * memloc_quantize 1 when an axis's max - min is not finite; the others
 * 0; and all but memloc_kdtree, memloc_inject and memloc_take -1 when
 * memory runs out.  memloc_quantize, memloc_sfc, memloc_block,
 * memloc_first_touch and memloc_simulate allocate all their scratch
 * before they write, so their -1 leaves the caller's arrays as they
 * were.  _core.py binds each
 * function from its definition here, so a definition starts its
 * line with "int64_t memloc_<name>(", and each parameter is an int64_t
 * or double number, or a pointer to int64_t, uint64_t, uint32_t, uint8_t
 * or double written "T *name", with const when the function only reads
 * the array.
 */
#include <float.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* One set-associative LRU level.  Each set is an array of `ways` tags in
 * recency order, MRU first: Mattson et al.'s LRU stack (IBM Syst. J.
 * 1970) kept as a move-to-front list (Sleator and Tarjan, CACM 1985).  A
 * tag is its line with the sign bit flipped, line ^ INT64_MIN, so a way
 * never filled, which calloc zeroed, holds the tag of line INT64_MIN, and
 * no line is INT64_MIN: trace lines lie in [0, 2^58), and a stride
 * prefetch moves a line by less than a page's 64 lines times
 * PrefetchConfig's bound of 2^56 on degree + distance, so it stays above
 * -2^62.  A fill puts its line first and shifts the set down one way, so
 * unfilled ways stay at the LRU end, and fills use them first.  Only L2
 * keeps per-way prefetch flags, which move with their tags: the helpers
 * take them as `pf`, NULL for L1 and L3, so each call compiles to its own
 * code. */
typedef struct {
    int64_t *tag;   /* sets * ways tags */
    uint8_t *pf;    /* L2 only, per way: HW-prefetched and not yet demand-hit */
    int64_t ways, mask;
} level;

static int level_init(level *lv, int64_t sets, int64_t ways, int flags)
{
    lv->ways = ways;
    lv->mask = sets - 1;
    lv->tag = calloc(sets * ways, sizeof *lv->tag);
    lv->pf = flags ? calloc(sets * ways, 1) : NULL;
    return lv->tag && (lv->pf || !flags) ? 0 : -1;
}

static void level_free(level *lv)
{
    free(lv->tag);
    free(lv->pf);
}

/* The way of the set at base that holds tag, or ways when none does. */
static inline int64_t way_of(const level *lv, int64_t base, int64_t tag)
{
    int64_t p = 0;
    while (p < lv->ways && lv->tag[base + p] != tag)
        p++;
    return p;
}

/* Put tag and flag first in the set at base, shifting its ways before way
 * p down one, so the tag at p falls out. */
static inline __attribute__((always_inline)) void to_front(level *lv, uint8_t *pf, int64_t base,
                                                           int64_t p, int64_t tag, uint8_t flag)
{
    int64_t *t = lv->tag + base;
    for (; p > 0; p--) {
        t[p] = t[p - 1];
        if (pf)
            pf[base + p] = pf[base + p - 1];
    }
    t[0] = tag;
    if (pf)
        pf[base] = flag;
}

/* Scan the line's set from MRU.  A hit moves the line to MRU with its flag
 * and returns that way's index; a miss returns -1, after putting the line
 * at MRU with a 0 flag over the LRU way when `fill` is set.  With fill,
 * the scan shifts each way it passes down one as it goes, so it ends at
 * the line's way, or past the LRU way, with the move done: one loop with
 * one exit that depends on the data, where a scan and then a shift have
 * two.  Always inlined, so a NULL pf drops the flag moves from the
 * call's code. */
static inline __attribute__((always_inline)) int64_t lookup(level *lv, uint8_t *pf,
                                                             int64_t line, int fill)
{
    int64_t w = lv->ways, base = (line & lv->mask) * w, tag = line ^ INT64_MIN, p;
    if (!fill) {
        if ((p = way_of(lv, base, tag)) == w)
            return -1;
        to_front(lv, pf, base, p, tag, pf ? pf[base + p] : 0);
        return base;
    }
    int64_t *t = lv->tag + base, moved = tag;  /* the tag and flag for way p */
    uint8_t flag = 0;
    for (p = 0; p < w; p++) {
        int64_t x = t[p];
        t[p] = moved;
        moved = x;
        if (pf) {
            uint8_t f = pf[base + p];
            pf[base + p] = flag;
            flag = f;
        }
        if (x == tag)
            break;
    }
    if (p == w)
        return -1;
    if (pf)
        pf[base] = flag;  /* the line's own */
    return base;
}

static inline int contains(const level *lv, int64_t line)
{
    return way_of(lv, (line & lv->mask) * lv->ways, line ^ INT64_MIN) < lv->ways;
}

/* Insert a line the set does not hold as MRU over the LRU way. */
static inline void fill(level *lv, uint8_t *pf, int64_t line, uint8_t flag)
{
    to_front(lv, pf, (line & lv->mask) * lv->ways, lv->ways - 1, line ^ INT64_MIN, flag);
}

/* A map from pages to two int64s, a and b, by linear probing from the top
 * `bits` bits of page * 2^64 / golden ratio (Knuth's multiplicative hashing,
 * TAOCP vol. 3, 6.4), so pages 2^k apart get different home slots.  A slot
 * is live while its stamp equals the table's: a free slot's stamp is -1, a
 * table's starts at 0, and raising it frees every slot at once. */
typedef struct {
    int64_t page, stamp, a, b;
} page_slot;

typedef struct {
    page_slot *slots;
    int64_t bits, stamp, count;  /* count: live slots */
} page_table;

/* 2^bits free slots, or NULL, filled with 0xff rather than calloc'd: find
 * reads a slot before claim writes it, and a fresh calloc'd page read first
 * faults again when written (a zero fill would be compiled into calloc). */
static page_slot *new_slots(int64_t bits)
{
    size_t n = (size_t)1 << bits;
    page_slot *s = n <= SIZE_MAX / sizeof *s ? malloc(n * sizeof *s) : NULL;
    return s ? memset(s, 0xff, n * sizeof *s) : NULL;
}

/* The page's slot, or the free slot where it would go. */
static page_slot *find(const page_table *t, int64_t page)
{
    uint64_t mask = ((uint64_t)1 << t->bits) - 1;
    uint64_t i = (uint64_t)page * 0x9e3779b97f4a7c15u >> (64 - t->bits);
    while (t->slots[i].stamp == t->stamp && t->slots[i].page != page)
        i = (i + 1) & mask;
    return &t->slots[i];
}

/* Fill the free slot s, which find returned for page, and double the
 * table at half load, rehashing only its live slots; a doubling moves
 * every slot, so s and any other slot pointer is stale after it.  -1 when
 * memory runs out. */
static int claim(page_table *t, page_slot *s, int64_t page, int64_t a, int64_t b)
{
    int64_t size = (int64_t)1 << t->bits;
    *s = (page_slot){page, t->stamp, a, b};
    if (++t->count * 2 <= size)
        return 0;
    page_slot *old = t->slots;
    if (!(t->slots = new_slots(t->bits + 1))) {
        t->slots = old;
        return -1;
    }
    t->bits++;
    for (int64_t i = 0; i < size; i++)
        if (old[i].stamp == t->stamp)
            *find(t, old[i].page) = old[i];
    free(old);
    return 0;
}

typedef struct {
    level lv[3];
    page_table pages;  /* per page: its last line (a) and stride (b) */
    int64_t degree, distance, page_shift;  /* degree 0: no HW prefetcher */
    int64_t *st;  /* HW prefetches issued, HW prefetches useful */
} hierarchy;

static void hw_prefetch(hierarchy *h, int64_t line)
{
    level *l2 = &h->lv[1];
    if (!contains(l2, line)) {
        h->st[0]++;
        fill(l2, l2->pf, line, 1);
    }
}

/* Train the per-page stride table on an L2 access (an L1 demand miss) and
 * issue its prefetches into L2: `degree` lines ahead once two consecutive
 * same-page deltas are equal, and the next line on an L2 miss. */
static int observe(hierarchy *h, int64_t line, int l2_miss)
{
    int64_t page = line >> h->page_shift;
    page_slot *s = find(&h->pages, page);
    if (s->stamp == h->pages.stamp) {
        int64_t delta = line - s->a;
        if (delta != 0 && delta == s->b)
            for (int64_t k = 1; k <= h->degree; k++)
                hw_prefetch(h, line + delta * (h->distance + k - 1));
        s->a = line;
        s->b = delta;
    } else if (claim(&h->pages, s, page, line, 0)) {
        return -1;
    }
    if (l2_miss)
        hw_prefetch(h, line + 1);
    return 0;
}

/* One demand access: the level that served it (3 for DRAM), -1 on no
 * memory.  L1 and L3 look up and fill in one pass, as nothing touches
 * their sets in between; L2 fills after observe, whose prefetches may
 * fill the same set first. */
static int demand(hierarchy *h, int64_t line)
{
    level *l1 = &h->lv[0], *l2 = &h->lv[1], *l3 = &h->lv[2];
    if (lookup(l1, NULL, line, 1) >= 0)
        return 0;
    int64_t way = lookup(l2, l2->pf, line, 0);
    if (way >= 0 && l2->pf[way]) {
        l2->pf[way] = 0;
        h->st[1]++;
    }
    if (h->degree && observe(h, line, way < 0))
        return -1;
    if (way >= 0)
        return 1;
    int dram = lookup(l3, NULL, line, 1) < 0;
    fill(l2, l2->pf, line, 0);
    return 2 + dram;
}

/* Filter the n records of vaddr, each the line vaddr >> line_shift,
 * which memsys's line_shift of 6 keeps below 2^58, as the levels' tags
 * need: no line, prefetches included, may be INT64_MIN, the line of an
 * unfilled way's tag 0.  served[i] = 0-2 when an L1-L3 hit serves the
 * demand access i, 3 when DRAM does, and 4 when record i is of kind
 * `prefetch_kind`, a software prefetch that fills level `sw_level` only.
 * stats receives the hierarchy's 2 counters, st, then the number of
 * records served at each of levels 0-4.  The levels are calloc'd, so a
 * large cache pages in only the sets the trace touches. */
int64_t memloc_filter(int64_t n, const uint64_t *vaddr, int64_t line_shift,
                      const uint8_t *kinds, uint8_t *served, const int64_t *sets,
                      const int64_t *ways, int64_t sw_level, int64_t prefetch_kind,
                      int64_t degree, int64_t distance, int64_t page_shift, int64_t *stats)
{
    hierarchy h = {.pages = {new_slots(10), 10, 0, 0}, .degree = degree,
                   .distance = distance, .page_shift = page_shift, .st = stats};
    int rc = !h.pages.slots;
    for (int k = 0; k < 3; k++)
        rc |= level_init(&h.lv[k], sets[k], ways[k], k == 1);
    level *sw = &h.lv[sw_level];
    for (int64_t i = 0; i < n && !rc; i++) {
        int64_t line = (int64_t)(vaddr[i] >> line_shift);
        int r = 4;
        if (kinds[i] == prefetch_kind) {
            lookup(sw, sw->pf, line, 1);
        } else if ((r = demand(&h, line)) < 0) {
            rc = 1;
            break;
        }
        served[i] = (uint8_t)r;
        stats[2 + r]++;
    }
    for (int k = 0; k < 3; k++)
        level_free(&h.lv[k]);
    free(h.pages.slots);
    return rc ? -1 : 0;
}

/* Copy to the out arrays, in order, the records i with served[i] ==
 * level: with level 3, memloc_filter's DRAM trace, which the caller sizes
 * from the filter's count of DRAM records. */
int64_t memloc_take(int64_t n, const uint8_t *served, int64_t level, const uint64_t *vaddr,
                    const uint32_t *cycle, const uint8_t *kind, uint64_t *out_vaddr,
                    uint32_t *out_cycle, uint8_t *out_kind)
{
    for (int64_t i = 0, o = 0; i < n; i++)
        if (served[i] == level) {
            out_vaddr[o] = vaddr[i];
            out_cycle[o] = cycle[i];
            out_kind[o++] = kind[i];
        }
    return 0;
}

/* Copy the n records to the out arrays, putting before each demand
 * record (kind other than prefetch_kind) a record of that kind for the
 * address of the demand record `distance` demands ahead, at the demand
 * record's cycle; demands with fewer than `distance` demands after them
 * get none, so the out arrays hold n + max(0, demands - distance)
 * records.  A look-ahead index walks the demands once, `distance` ahead
 * of the copy. */
int64_t memloc_inject(int64_t n, const uint64_t *vaddr, const uint32_t *cycle,
                      const uint8_t *kind, int64_t distance, int64_t prefetch_kind,
                      uint64_t *out_vaddr, uint32_t *out_cycle, uint8_t *out_kind)
{
    int64_t ahead = -1, o = 0;
    for (int64_t d = 0; d <= distance && ahead < n; d++)
        do
            ahead++;
        while (ahead < n && kind[ahead] == prefetch_kind);
    for (int64_t i = 0; i < n; i++) {
        if (kind[i] != prefetch_kind && ahead < n) {
            out_vaddr[o] = vaddr[ahead];
            out_cycle[o] = cycle[i];
            out_kind[o++] = (uint8_t)prefetch_kind;
            do
                ahead++;
            while (ahead < n && kind[ahead] == prefetch_kind);
        }
        out_vaddr[o] = vaddr[i];
        out_cycle[o] = cycle[i];
        out_kind[o++] = kind[i];
    }
    return 0;
}

/* FR-FCFS-Cap over the n requests of vaddr.  Request i arrives at
 * cycle[i] when gap < 0 and at i * gap when not, and is on bank
 * vaddr[i] >> bank_shift & bank_mask, row vaddr[i] >> row_shift &
 * row_mask, mapped as it enters the window, by the shifts and masks
 * dramsim derives from the scheme; dramsim.simulate_ideal's all-row-hit
 * bound passes masks of 0, one window slot and one latency.  The window
 * holds the `depth` oldest arrived requests in arrival order; the oldest
 * row hit is served first unless an older request in front of it has
 * been bypassed max_bypass times.  counts[bank * 3 + kind] and events[i]
 * get the outcome, kind 0 hit, 1 closed bank, 2 conflict; latency[0..1]
 * the low and high 64 bits of the summed latencies.  While no queued
 * request can hit its bank's open row, the oldest is served with no scan
 * of the window.  All scratch, the window's ring and its bucket counts,
 * O(depth) and 72 bytes a slot, is allocated before anything is written. */
int64_t memloc_simulate(int64_t n, const uint64_t *vaddr, const uint32_t *cycle, int64_t gap,
                        int64_t bank_shift, int64_t bank_mask, int64_t row_shift,
                        int64_t row_mask, int64_t nbanks, int64_t t_hit, int64_t t_closed,
                        int64_t t_conflict, int64_t max_bypass, int64_t depth, int64_t *counts,
                        uint8_t *events, uint64_t *latency)
{
    /* The window is a ring of entries that keep their request's bank and
     * row, so a scan reads only the window and the open rows, and serving
     * the oldest request moves nothing: request `next` enters slot next
     * and serving frees slot `done` (mod size), so it holds done .. next - 1.
     * `clean` means that no window request hits its bank's open row, so
     * the oldest is served with no scan.  A scan that reaches the window's
     * end sets it.  An arrival that hits clears it, and so does serving a
     * request whose bucket still counts a window request, as one of them
     * may hit the row it opened: an entry's `bucket` is a multiplicative
     * hash of its (bank, row), the address bits under `key`, into
     * `queued`, 8 buckets a slot, which counts the window's entries in
     * each.  Two rows that share a bucket cost a scan, never a wrong pick.
     * A window of one slot never holds a request behind the one it
     * serves, so it keeps no counts and never scans. */
    typedef struct {
        int64_t bank, row, arrive, bypass;
        uint32_t bucket;
    } entry;
    int64_t size = 1, bits = 3;  /* 2^bits buckets, at most 2^32: a uint32_t bucket */
    while (size < depth) {
        size *= 2;
        bits += bits < 32;
    }
    int fits = (uint64_t)size <= SIZE_MAX / sizeof(entry);
    int64_t *open_row = malloc(nbanks * sizeof *open_row);
    entry *win = fits ? malloc(size * sizeof *win) : NULL;
    uint32_t *queued = fits ? calloc((size_t)1 << bits, sizeof *queued) : NULL;
    if (!open_row || !win || !queued) {
        free(open_row);
        free(win);
        free(queued);
        return -1;
    }
    memset(open_row, 0xff, nbanks * sizeof *open_row);
    const int64_t service[3] = {t_hit, t_closed, t_conflict};
    uint64_t lat_lo = 0, lat_hi = 0;
    int64_t mask = size - 1, next = 0, done = 0, t = 0;
    int64_t at = n && gap < 0 ? cycle[0] : 0;  /* request next's arrival */
    int clean = 0, counted = depth > 1;
    uint64_t key = (uint64_t)bank_mask << bank_shift | (uint64_t)row_mask << row_shift;
    while (done < n) {
        while (next < n && next - done < depth && at <= t) {
            uint64_t a = vaddr[next];
            int64_t bank = (int64_t)(a >> bank_shift) & bank_mask;
            int64_t row = (int64_t)(a >> row_shift) & row_mask;
            entry *w = &win[next & mask];
            *w = (entry){bank, row, at, 0, 0};
            if (counted) {
                w->bucket = (a & key) * 0x9e3779b97f4a7c15u >> (64 - bits);
                queued[w->bucket]++;
                clean &= open_row[bank] != row;
            }
            next++;
            at = next == n ? 0 : gap < 0 ? cycle[next] : next * gap;
        }
        if (next == done) {
            t = at;
            continue;
        }
        int64_t pick = done;
        if (!clean && counted) {
            int64_t pos = done;
            for (; pos < next; pos++) {
                const entry *w = &win[pos & mask];
                if (open_row[w->bank] == w->row) {
                    pick = pos;
                    break;
                }
                if (w->bypass >= max_bypass)
                    break;
            }
            clean = pos == next;
        }
        /* Take the pick out: the requests in front of it move back one
         * slot, each bypassed once more. */
        entry e = win[pick & mask];
        for (int64_t pos = pick; pos > done; pos--) {
            win[pos & mask] = win[(pos - 1) & mask];
            win[pos & mask].bypass++;
        }
        if (counted)
            clean &= --queued[e.bucket] == 0;
        int64_t open = open_row[e.bank];
        int kind = open == e.row ? 0 : open == -1 ? 1 : 2;
        open_row[e.bank] = e.row;
        t = (t > e.arrive ? t : e.arrive) + service[kind];
        uint64_t d = (uint64_t)(t - e.arrive);
        lat_hi += (lat_lo += d) < d;  /* the 128-bit sum, with its carry */
        counts[e.bank * 3 + kind]++;
        events[done++] = (uint8_t)kind;
    }
    latency[0] = lat_lo;
    latency[1] = lat_hi;
    free(open_row);
    free(win);
    free(queued);
    return 0;
}

/* A row (in memloc_dtree, a position in a node) and its split value. */
typedef struct {
    double key;
    int64_t row;
} keyed;

/* The order that a stable sort on the split axis at depth d would give
 * a subtree.  Before that sort the subtree holds its rows in its
 * parent's sorted order, and the root holds them by row index, so the
 * sort orders rows by their value on path[d], then on path[d - 1], ...,
 * path[0] (the ancestors' split axes, nearest first), then by row: a
 * total order, under which -0.0 and 0.0 are equal values. */
typedef struct {
    const double *data;
    int64_t m, depth;
    const int64_t *path;
} rank;

/* x before y among rows whose keys are equal: by the ancestors' axes. */
static __attribute__((noinline)) int tied_before(const rank *c, int64_t x, int64_t y)
{
    const double *p = c->data + x * c->m, *q = c->data + y * c->m;
    for (int64_t d = c->depth - 1; d >= 0; d--)
        if (p[c->path[d]] != q[c->path[d]])
            return p[c->path[d]] < q[c->path[d]];
    return x < y;
}

static inline int before(const rank *c, const keyed *x, const keyed *y)
{
    if (x->key != y->key)
        return x->key < y->key;
    return tied_before(c, x->row, y->row);
}

/* Sort a[0 .. len) by rank c, with tmp (len pairs) as scratch:
 * insertion sort on runs of 16, then bottom-up merges. */
static void sort_ranked(const rank *c, keyed *a, keyed *tmp, int64_t len)
{
    enum { RUN = 16 };
    for (int64_t lo = 0; lo < len; lo += RUN) {
        int64_t hi = lo + RUN < len ? lo + RUN : len;
        for (int64_t i = lo + 1; i < hi; i++) {
            keyed x = a[i];
            int64_t j = i;
            for (; j > lo && before(c, &x, &a[j - 1]); j--)
                a[j] = a[j - 1];
            a[j] = x;
        }
    }
    keyed *src = a, *dst = tmp;
    for (int64_t width = RUN; width < len; width *= 2) {
        for (int64_t lo = 0; lo < len; lo += 2 * width) {
            int64_t mid = lo + width < len ? lo + width : len;
            int64_t hi = lo + 2 * width < len ? lo + 2 * width : len;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi) {
                /* Select an index, not a pair, so the compiler need not
                 * branch on the comparison, which data make random. */
                int right = before(c, &src[j], &src[i]);
                dst[k++] = src[right ? j : i];
                j += right;
                i += !right;
            }
            while (i < mid)
                dst[k++] = src[i++];
            while (j < hi)
                dst[k++] = src[j++];
        }
        keyed *t = src;
        src = dst;
        dst = t;
    }
    if (src != a)
        memcpy(a, src, len * sizeof *a);
}

/* Move the pair of rank k (0 <= k < len) by c to a[k], the pairs
 * ranked below it before it and the rest after it: Hoare's FIND around
 * the median of the pairs at the quartiles and the middle, with runs of
 * up to 16 pairs insertion-sorted.  As in Musser's introselect, a range
 * that is still not narrowed after 2 log2(len) partitions is sorted
 * instead, so no input takes quadratic time. */
static void select_ranked(const rank *c, keyed *a, keyed *tmp, int64_t len, int64_t k)
{
    int64_t l = 0, r = len - 1, budget = 0;
    for (int64_t left = len; left > 1; left >>= 1)
        budget += 2;
    while (r - l >= 16) {
        if (budget-- == 0) {
            sort_ranked(c, a + l, tmp, r - l + 1);
            return;
        }
        keyed *u = &a[l + (r - l) / 4], *v = &a[l + (r - l) / 2], *w = &a[r - (r - l) / 4];
        if (before(c, v, u)) {
            keyed *t = u;
            u = v;
            v = t;
        }
        keyed *p = before(c, w, v) ? (before(c, w, u) ? u : w) : v, x = *p;
        *p = a[r];
        /* Partition a[l .. r) into tmp, the pairs ranked below x from its
         * front and the others from its back.  Each pair is stored at
         * both ends, so no branch and no load waits on the comparison;
         * the slot that is not its own is overwritten later. */
        int64_t below = 0, above = r - l;
        for (int64_t i = l; i < r; i++) {
            int lt = before(c, &a[i], &x);
            tmp[below] = a[i];
            tmp[above] = a[i];
            below += lt;
            above -= !lt;
        }
        tmp[below] = x;
        memcpy(a + l, tmp, (r - l + 1) * sizeof *a);
        int64_t s = l + below;
        if (k < s)
            r = s - 1;
        else if (k > s)
            l = s + 1;
        else
            return;
    }
    sort_ranked(c, a + l, tmp, r - l + 1);
}

/* The axis of widest max - min spread over the rows of a[0 .. len),
 * the lowest on ties: one axis at a time, so its bounds stay in
 * registers. */
static int64_t widest_axis(const double *data, int64_t m, const keyed *a, int64_t len)
{
    int64_t ax = 0;
    double widest = 0.0;
    for (int64_t j = 0; j < m; j++) {
        double low = data[a[0].row * m + j], high = low;
        for (int64_t i = 1; i < len; i++) {
            double v = data[a[i].row * m + j];
            low = v < low ? v : low;
            high = v > high ? v : high;
        }
        if (j == 0 || high - low > widest) {
            widest = high - low;
            ax = j;
        }
    }
    return ax;
}

/* Median bisection of the n x m row-major matrix data into order, which
 * gets the n row indices.  The result is that of stably sorting every
 * subtree of positions [lo, hi) with more than `leaf` rows by one axis,
 * starting from row order, and splitting it.  The kd-tree (rcb = 0)
 * splits on axis depth % m and keeps its node at mid = lo + (hi - lo) /
 * 2, with subtrees [lo, mid) and [mid + 1, hi).  Recursive coordinate
 * bisection (rcb = 1) splits on the axis of widest max - min spread,
 * the lowest index on ties, into [lo, lo + (hi - lo + 1) / 2) and the
 * rest.  Only the rows each side gets and, in a leaf, their order fix
 * that result, so a split selects the pair of its rank (select_ranked)
 * and only a leaf of two rows or more is sorted, by its parent's rank. */
int64_t memloc_bisect(int64_t n, int64_t m, const double *data, int64_t *order,
                      int64_t leaf, int64_t rcb)
{
    /* Frame depths rise strictly from the bottom of the stack, and no
     * subtree of fewer than 2^63 rows is 64 levels deep.  path[d] is the
     * split axis at depth d on the way to the subtree being split; a
     * frame's ancestors are all shallower than every frame above it, so
     * their axes stay in place until it is popped. */
    struct {
        int64_t lo, hi, depth;
    } stack[64];
    int64_t path[64];
    keyed *a = malloc(2 * n * sizeof *a), *tmp = a + n;
    if (!a)
        return -1;
    for (int64_t i = 0; i < n; i++)
        a[i].row = i;
    int64_t top = 1;
    stack[0].lo = 0;
    stack[0].hi = n;
    stack[0].depth = 0;
    while (top) {
        top--;
        int64_t lo = stack[top].lo, hi = stack[top].hi, depth = stack[top].depth;
        while (hi - lo > leaf) {
            int64_t len = hi - lo, ax = rcb ? widest_axis(data, m, a + lo, len) : depth % m;
            for (int64_t i = lo; i < hi; i++)
                a[i].key = data[a[i].row * m + ax];
            path[depth] = ax;
            int64_t left = rcb ? (len + 1) / 2 : len / 2;
            select_ranked(&(rank){data, m, depth, path}, a + lo, tmp, len, left);
            stack[top].lo = lo + left + !rcb;
            stack[top].hi = hi;
            stack[top++].depth = ++depth;
            hi = lo + left;
        }
        /* A leaf keeps its parent's order; its keys are its parent's. */
        if (depth && hi - lo > 1)
            sort_ranked(&(rank){data, m, depth - 1, path}, a + lo, tmp, hi - lo);
    }
    for (int64_t i = 0; i < n; i++)
        order[i] = a[i].row;
    free(a);
    return 0;
}

/* The kNN heap: best[0 .. size) holds the smallest d2 seen so far in a
 * max-heap, the k-th best on top.  Which of two equal d2 sits higher
 * changes no value in it, so the walk's prune and accept do not depend
 * on it. */
static void heap_push(double *best, int64_t size, double d)
{
    int64_t i = size;
    while (i > 0) {
        int64_t up = (i - 1) / 2;
        if (!(d > best[up]))
            break;
        best[i] = best[up];
        i = up;
    }
    best[i] = d;
}

static void heap_replace_top(double *best, int64_t size, double d)
{
    int64_t i = 0;
    for (int64_t c; (c = 2 * i + 1) < size; i = c) {
        if (c + 1 < size && best[c + 1] > best[c])
            c++;
        if (!(best[c] > d))
            break;
        best[i] = best[c];
    }
    best[i] = d;
}

/* One pruned depth-first walk per row of the nq x m query matrix from
 * query `first` on, near side first, writing every examined row to rows
 * (cap slots); query q's rows are rows[starts[q] .. starts[q + 1]), and
 * starts[first] says where query `first`'s go (0 for the first call).
 * No query examines a row twice, so before each query the walk stops
 * when fewer than n slots are left: it sets starts[q] and returns q, the
 * query to resume from.  It returns nq when every query is done.  pts
 * holds the n points in tree order, row order[p] at position p: the node
 * of positions [lo, hi) sits at mid = lo + (hi - lo) / 2, with subtrees
 * [lo, mid) and [mid + 1, hi), and splits on axis depth % m.  Only far
 * sides are stacked, so a near side is never pruned.  With k >= 1
 * (k <= n), each query keeps the k best d2 in the max-heap best (k
 * slots, reused by every query) and skips a far side whose plane is no
 * nearer than the k-th best d2; with k = 0 it skips a far side whose
 * plane lies beyond r2, and computes no d2.
 * d2 is the left-to-right float64 sum of squared differences; _core.py
 * compiles without FMA contraction, so it is the same on every host. */
int64_t memloc_kdtree(int64_t n, int64_t m, const double *pts, const int64_t *order,
                      int64_t nq, const double *queries, int64_t k, double r2,
                      double *best, int64_t first, int64_t cap, int64_t *rows,
                      int64_t *starts)
{
    /* Frame depths rise strictly from the bottom of the stack, and no
     * subtree of fewer than 2^63 rows is 64 levels deep. */
    struct {
        int64_t lo, hi, depth;
        double plane2;
    } stack[64];
    int64_t len = starts[first];
    for (int64_t qi = first; qi < nq; qi++) {
        starts[qi] = len;
        if (cap - len < n)
            return qi;
        const double *q = queries + qi * m;
        int64_t found = 0, top = 1;
        stack[0].lo = 0;
        stack[0].hi = n;
        stack[0].depth = 0;
        stack[0].plane2 = 0.0;
        while (top) {
            top--;
            int64_t lo = stack[top].lo, hi = stack[top].hi, depth = stack[top].depth;
            double plane2 = stack[top].plane2;
            if (k ? found == k && plane2 >= best[0] : !(plane2 <= r2))
                continue;
            while (lo < hi) {
                int64_t mid = lo + (hi - lo) / 2;
                const double *p = pts + mid * m;
                rows[len++] = order[mid];
                if (k) {
                    double d2 = 0.0;
                    for (int64_t j = 0; j < m; j++) {
                        double d = p[j] - q[j];
                        d2 += d * d;
                    }
                    if (found < k)
                        heap_push(best, found++, d2);
                    else if (d2 < best[0])
                        heap_replace_top(best, k, d2);
                }
                int64_t ax = depth % m;
                double delta = q[ax] - p[ax];
                stack[top].depth = ++depth;
                stack[top].plane2 = delta * delta;
                if (delta < 0) {
                    stack[top].lo = mid + 1;
                    stack[top++].hi = hi;
                    hi = mid;
                } else {
                    stack[top].lo = lo;
                    stack[top++].hi = mid;
                    lo = mid + 1;
                }
            }
        }
    }
    starts[nq] = len;
    return nq;
}

/* 1 - the sum of squared class shares count[c] / total, summed left to
 * right over the classes in ascending order. */
static double gini(const int64_t *count, int64_t ncls, int64_t total)
{
    double sum = 0.0;
    for (int64_t c = 0; c < ncls; c++) {
        double share = (double)count[c] / (double)total;
        sum += share * share;
    }
    return 1.0 - sum;
}

/* Greedy decision-tree induction over the n x m row-major matrix data,
 * row r of class label[r] in [0, ncls), depth first in preorder.  idx
 * holds the n row indices (arange(n) on entry); node i owns idx[lo .. hi)
 * and gets bounds[2i] = lo and bounds[2i + 1] = hi, for at most cap
 * nodes.  A node shallower than max_depth whose Gini impurity is above
 * 0 thresholds its rows at <= each feature's median (the mean of the two
 * middle values for an even count), and splits where both sides are
 * non-empty and their weighted Gini (nl * g_left + nr * g_right) / len
 * is lowest, the first feature on ties, unless that is no lower than its
 * own.  A split partitions the node's range stably, the left side first,
 * so idx ends as the leaves' rows in preorder, each in storage order.
 * Returns the number of nodes, or -1 when memory runs out. */
int64_t memloc_dtree(int64_t n, int64_t m, const double *data, int64_t ncls,
                     const int64_t *label, int64_t max_depth, int64_t cap, int64_t *idx,
                     int64_t *bounds)
{
    /* The stack holds one pending right side per level above the node
     * being split, then its two children: depth + 1 frames.  A node of
     * depth d holds at most n + 1 - d rows, so one that splits is
     * shallower than both max_depth and n. */
    int64_t levels = max_depth < n ? max_depth : n;
    struct frame {
        int64_t lo, hi, depth;
    } *stack = malloc((levels + 1) * sizeof *stack);
    keyed *a = malloc(2 * n * sizeof *a), *tmp = a + n;
    int64_t *lab = malloc(2 * n * sizeof *lab), *right = lab + n;
    int64_t *count = malloc(3 * ncls * sizeof *count), *left = count + ncls, *rest = left + ncls;
    if (!stack || !a || !lab || !count) {
        free(stack);
        free(a);
        free(lab);
        free(count);
        return -1;
    }
    int64_t nodes = 0, top = 1;
    stack[0] = (struct frame){0, n, 1};
    while (top && nodes < cap) {
        struct frame f = stack[--top];
        int64_t len = f.hi - f.lo, *rows = idx + f.lo;
        bounds[2 * nodes] = f.lo;
        bounds[2 * nodes++ + 1] = f.hi;
        if (f.depth >= max_depth)
            continue;
        memset(count, 0, ncls * sizeof *count);
        for (int64_t i = 0; i < len; i++)
            count[lab[i] = label[rows[i]]]++;
        double parent = gini(count, ncls, len), best = 0.0, best_thr = 0.0;
        if (parent == 0.0)
            continue;
        int64_t best_j = -1;
        for (int64_t j = 0; j < m; j++) {
            /* Ranked by value, then position: the pair of rank k holds
             * the k-th smallest value. */
            for (int64_t i = 0; i < len; i++)
                a[i] = (keyed){data[rows[i] * m + j], i};
            int64_t k = (len - 1) / 2;
            select_ranked(&(rank){data, m, 0, NULL}, a, tmp, len, k);
            double thr = a[k].key;
            if (len % 2 == 0) {
                double upper = a[k + 1].key;
                for (int64_t i = k + 2; i < len; i++)
                    upper = a[i].key < upper ? a[i].key : upper;
                thr = (thr + upper) / 2;
            }
            memset(left, 0, ncls * sizeof *left);
            for (int64_t i = 0; i < len; i++)
                left[lab[a[i].row]] += a[i].key <= thr;
            int64_t nl = 0;
            for (int64_t c = 0; c < ncls; c++) {
                nl += left[c];
                rest[c] = count[c] - left[c];
            }
            if (nl == 0 || nl == len)
                continue;
            double score = ((double)nl * gini(left, ncls, nl)
                            + (double)(len - nl) * gini(rest, ncls, len - nl)) / (double)len;
            if (best_j < 0 || score < best) {
                best = score;
                best_j = j;
                best_thr = thr;
            }
        }
        if (best_j < 0 || best >= parent)
            continue;
        int64_t nl = 0, nr = 0;
        for (int64_t i = 0; i < len; i++) {
            int64_t row = rows[i];
            if (data[row * m + best_j] <= best_thr)
                rows[nl++] = row;
            else
                right[nr++] = row;
        }
        memcpy(rows + nl, right, nr * sizeof *right);
        stack[top++] = (struct frame){f.lo + nl, f.hi, f.depth + 1};
        stack[top++] = (struct frame){f.lo, f.lo + nl, f.depth + 1};
    }
    free(stack);
    free(a);
    free(lab);
    free(count);
    return nodes;
}

/* memloc_node_rows's first pass, over the nodes in preorder: last[r] (all
 * -1 on entry) becomes the deepest node holding row r, parent[s] is last[]
 * of s's first row, and next[s] is where s starts in out.  In a tree in
 * preorder each row of a node overwrites exactly its parent in last[], so
 * that one check finds a row twice in a node, a row the parent lacks and
 * overlapping siblings.  Returns -1 on such a row or one outside [0, n). */
static int tree_parents(int64_t n, int64_t nodes, const int64_t *bounds, const int64_t *src,
                        int64_t *last, int64_t *parent, int64_t *next)
{
    int64_t total = 0;
    for (int64_t s = 0; s < nodes; s++) {
        int64_t lo = bounds[2 * s], hi = bounds[2 * s + 1];
        if (hi < lo)
            return -1;
        parent[s] = lo < hi && (uint64_t)src[lo] < (uint64_t)n ? last[src[lo]] : -1;
        next[s] = total;
        total += hi - lo;
        for (int64_t i = lo; i < hi; i++) {
            uint64_t r = (uint64_t)src[i];
            if (r >= (uint64_t)n || last[r] != parent[s])
                return -1;
            last[r] = s;
        }
    }
    return 0;
}

/* Node after node, into out, each position v whose row order[v] the node
 * holds, ascending in v: node s is src[bounds[2s] .. bounds[2s + 1]), the
 * nodes come in preorder, each a subset of its parent's, and order is a
 * permutation of [0, n).  After tree_parents, one pass over v appends v
 * to each node on the path from last[order[v]] up through parent and
 * clears last[], so a repeated row adds nothing.  O(n + the nodes' rows)
 * with no comparisons, in n + 2 * nodes int64 of scratch.  Returns the
 * entries written: the nodes' total on valid input, 0 when they are not
 * such a tree. */
int64_t memloc_node_rows(int64_t n, int64_t nodes, const int64_t *bounds, const int64_t *src,
                         const int64_t *order, int64_t *out)
{
    int64_t *last = malloc((n + 2 * nodes ? n + 2 * nodes : 1) * sizeof *last);
    if (!last)
        return -1;
    int64_t *parent = last + n, *next = parent + nodes, written = 0;
    for (int64_t r = 0; r < n; r++)
        last[r] = -1;
    if (tree_parents(n, nodes, bounds, src, last, parent, next) >= 0)
        for (int64_t v = 0; v < n; v++) {
            uint64_t r = (uint64_t)order[v];
            if (r >= (uint64_t)n)
                continue;
            for (int64_t s = last[r]; s >= 0; s = parent[s]) {
                out[next[s]++] = v;
                written++;
            }
            last[r] = -1;
        }
    free(last);
    return written;
}

/* Quantise the n x m row-major matrix data (n >= 1) onto a grid of
 * 1 <= bits <= 64 bits per axis, bounded by each axis's min and max from
 * one pass over the rows: coordinate j of a row is floor((x - lo[j]) /
 * span[j] * top + 0.5), clamped to [0, ceiling], and 0 on an axis of
 * span 0.  top is 2^bits - 1 as a float64 and ceiling the largest
 * integer float64 below 2^bits and at most top, so the cast floors any
 * positive value below it.  1, writing no grid, if a span is not finite. */
int64_t memloc_quantize(int64_t n, int64_t m, const double *data, int64_t bits, uint64_t *grid)
{
    double *lo = malloc(2 * m * sizeof *lo);
    if (!lo)
        return -1;
    double *span = lo + m;
    for (int64_t j = 0; j < m; j++)
        lo[j] = span[j] = data[j];
    for (int64_t i = 1; i < n; i++)
        for (int64_t j = 0; j < m; j++) {
            double x = data[i * m + j];
            lo[j] = x < lo[j] ? x : lo[j];
            span[j] = x > span[j] ? x : span[j];
        }
    int64_t finite = 1;
    for (int64_t j = 0; j < m; j++)
        finite &= (span[j] -= lo[j]) <= DBL_MAX;  /* span held the max */
    uint64_t mask = ~(uint64_t)0 >> (64 - bits);
    double top = (double)mask, ceiling = (double)(mask - (mask >> 53));
    for (int64_t i = 0; finite && i < n; i++)
        for (int64_t j = 0; j < m; j++) {
            double v = span[j] > 0 ? (data[i * m + j] - lo[j]) / span[j] * top + 0.5 : 0.0;
            grid[i * m + j] = v > 0 ? (uint64_t)(v < ceiling ? v : ceiling) : 0;
        }
    free(lo);
    return !finite;
}

/* The code pass works on blocks of rows, one axis at a time: axis j of
 * a block is WORDS words, each holding the coordinates of several rows
 * in lanes of `width` bits (the smallest of 8, 16, 32 and 64 that holds
 * `bits`), row l * WORDS + q in lane l of word q.  Every loop over a
 * block's words has the same fixed count and no branches, so the
 * compiler runs words side by side, and a narrow grid moves many rows
 * per word.  `one` has bit 0 of every lane set. */
enum { WORDS = 64 };

/* Skilling's exchange at bit k between axis 0 and axis i: in each lane
 * whose bit k of axis i is set, invert axis 0's low k bits, and in each
 * other lane swap them with axis i's.  (c - (c >> k) is a lane's low k
 * bits where c holds its bit k.) */
static void exchange(uint64_t *restrict x0, uint64_t *restrict xi, int64_t k, uint64_t one)
{
    uint64_t low = (one << k) - one;
    for (int q = 0; q < WORDS; q++) {
        uint64_t c = xi[q] & one << k, invert = c - (c >> k);
        uint64_t t = (x0[q] ^ xi[q]) & (low ^ invert);
        x0[q] ^= invert | t;
        xi[q] ^= t;
    }
}

static void xor_into(uint64_t *restrict x, const uint64_t *restrict y)
{
    for (int q = 0; q < WORDS; q++)
        x[q] ^= y[q];
}

/* Skilling's axes-to-transpose step (AIP Conf. Proc. 707, 2004) on the
 * m axes of a block, axis i at x[i * WORDS ..], as tests/reference_models.py's
 * _axes_to_transpose does on one row: the exchanges, then the Gray code. */
static void hilbert_transpose(uint64_t *x, int64_t m, int64_t bits, uint64_t one)
{
    uint64_t t[WORDS] = {0};
    for (int64_t k = bits - 1; k > 0; k--) {
        /* Axis 0's exchange with itself only inverts. */
        for (int q = 0; q < WORDS; q++) {
            uint64_t c = x[q] & one << k;
            x[q] ^= c - (c >> k);
        }
        for (int64_t i = 1; i < m; i++)
            exchange(x, x + i * WORDS, k, one);
    }
    for (int64_t i = 1; i < m; i++)
        xor_into(x + i * WORDS, x + (i - 1) * WORDS);
    const uint64_t *last = x + (m - 1) * WORDS;
    for (int64_t k = bits - 1; k > 0; k--)
        for (int q = 0; q < WORDS; q++) {
            uint64_t c = last[q] & one << k;
            t[q] ^= c - (c >> k);
        }
    for (int64_t i = 0; i < m; i++)
        xor_into(x + i * WORDS, t);
}

/* Bit b of each word of the axis xj into bit s of the row in out. */
static void pack_bit(uint64_t *restrict out, const uint64_t *restrict xj, int64_t b, int64_t s)
{
    for (int q = 0; q < WORDS; q++)
        out[q] |= (xj[q] >> b & 1) << s;
}

/* Space-filling-curve codes of the n rows of the n x m grid (bits <= 64
 * bits per axis, above which a coordinate's bits are ignored) and their
 * stable order.  words is the ceil(m * bits / 64) x n code-word matrix,
 * least significant word first: bit k of axis j is code bit k * m + j
 * of the Morton code, and of the Hilbert code (hilbert = 1) bit
 * k * m + m - 1 - j of Skilling's transpose, as hilbert_encode_oracle in
 * tests/reference_models.py lays it out.  order gets the rows by
 * ascending code, equal codes in row order, by an LSD radix sort over the
 * code's 8-bit digits that skips a digit all rows share. */
int64_t memloc_sfc(int64_t n, int64_t m, const uint64_t *grid, int64_t bits, int64_t hilbert,
                   uint64_t *words, int64_t *order)
{
    int64_t nwords = (m * bits + 63) / 64, digits = (m * bits + 7) / 8;
    int64_t width = bits <= 8 ? 8 : bits <= 16 ? 16 : bits <= 32 ? 32 : 64;
    int64_t lanes = 64 / width, rows = WORDS * lanes;
    uint64_t mask = bits < 64 ? ((uint64_t)1 << bits) - 1 : ~(uint64_t)0, one = 0;
    for (int64_t l = 0; l < lanes; l++)
        one |= (uint64_t)1 << l * width;
    uint64_t *x = malloc((m * WORDS + nwords * rows) * sizeof *x), *acc = x + m * WORDS;
    int64_t *count = calloc(digits * 256, sizeof *count);
    int64_t *tmp = malloc((n ? n : 1) * sizeof *tmp);
    if (!x || !count || !tmp) {
        free(x);
        free(count);
        free(tmp);
        return -1;
    }
    for (int64_t r0 = 0; r0 < n; r0 += rows) {
        /* Lanes past the last row stay 0 and are never stored. */
        int64_t len = n - r0 < rows ? n - r0 : rows;
        memset(x, 0, m * WORDS * sizeof *x);
        for (int64_t r = 0; r < len; r++)
            for (int64_t j = 0; j < m; j++)
                x[j * WORDS + r % WORDS] |= (grid[(r0 + r) * m + j] & mask) << r / WORDS * width;
        if (hilbert)
            hilbert_transpose(x, m, bits, one);
        memset(acc, 0, nwords * rows * sizeof *acc);
        for (int64_t j = 0; j < m; j++)
            for (int64_t k = 0, pos = hilbert ? m - 1 - j : j; k < bits; k++, pos += m)
                for (int64_t l = 0; l < lanes; l++)
                    pack_bit(acc + pos / 64 * rows + l * WORDS, x + j * WORDS, l * width + k,
                             pos % 64);
        for (int64_t w = 0; w < nwords; w++)
            memcpy(words + w * n + r0, acc + w * rows, len * sizeof *words);
    }
    /* Digit d is bits 8 (d % 8) .. of word d / 8; count every digit's
     * values in one read of the words. */
    for (int64_t d = 0; d < digits; d += 8) {
        const uint64_t *key = words + d / 8 * n;
        int64_t top = digits - d < 8 ? digits - d : 8;
        for (int64_t i = 0; i < n; i++)
            for (int64_t e = 0; e < top; e++)
                count[(d + e) * 256 + (key[i] >> 8 * e & 255)]++;
    }
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    int64_t *src = order, *dst = tmp;
    for (int64_t d = 0; d < digits && n; d++) {
        int64_t *start = count + d * 256;
        const uint64_t *key = words + d / 8 * n;
        int s = d % 8 * 8;
        if (start[key[0] >> s & 255] == n)
            continue;  /* every row has this digit: the pass would keep the order */
        for (int64_t v = 0, sum = 0; v < 256; v++) {
            int64_t c = start[v];
            start[v] = sum;
            sum += c;
        }
        for (int64_t i = 0; i < n; i++) {
            int64_t row = src[i];
            dst[start[key[row] >> s & 255]++] = row;
        }
        int64_t *t = src;
        src = dst;
        dst = t;
    }
    if (src != order)
        memcpy(order, src, n * sizeof *order);
    free(x);
    free(count);
    free(tmp);
    return 0;
}

/* The rows of [0, n) in order of first touch in seq[0 .. len), whose
 * rows the caller checked to lie in [0, n), then the rows seq never
 * touches, ascending, into out (n slots): one pass with a seen byte per
 * row, and one over the bytes. */
int64_t memloc_first_touch(int64_t len, const int64_t *seq, int64_t n, int64_t *out)
{
    uint8_t *seen = calloc(n ? n : 1, 1); /* calloc(0) may return NULL */
    if (!seen)
        return -1;
    int64_t k = 0;
    for (int64_t i = 0; i < len; i++)
        if (!seen[seq[i]]) {
            seen[seq[i]] = 1;
            out[k++] = seq[i];
        }
    for (int64_t row = 0; row < n; row++)
        if (!seen[row])
            out[k++] = row;
    free(seen);
    return 0;
}

/* Group the n rows of seq by page inside consecutive windows of
 * `window` >= 1 rows (the caller bounds it, and the scratch, by n): out
 * gets each window's rows grouped by the page of their first byte,
 * row * stride >> page_shift (floor division, negative rows included;
 * the caller checks that no row's byte leaves int64), the groups in
 * order of their first row and the rows of a group in their order in
 * seq.  A window numbers its pages in a page table, each page's group in
 * a, and the next window frees them all by raising the stamp, so none
 * clears it; its rows are then counted per group and scattered stably.
 * All scratch, O(window), is allocated before anything is written. */
int64_t memloc_block(int64_t n, const int64_t *seq, int64_t stride, int64_t page_shift,
                     int64_t window, int64_t *out)
{
    int bits = 1;  /* >= 2 * window slots: no window fills half, so none doubles them */
    while (bits < 62 && (int64_t)1 << (bits - 1) < window)
        bits++;
    page_table t = {new_slots(bits), bits, 0, 0};
    int64_t *group = calloc(2 * window, sizeof *group), *start = group + window;
    if (!t.slots || !group) {
        free(t.slots);
        free(group);
        return -1;
    }
    for (int64_t w0 = 0; w0 < n; w0 += window, t.stamp++, t.count = 0) {
        int64_t len = n - w0 < window ? n - w0 : window, groups = 0;
        for (int64_t i = 0; i < len; i++) {
            int64_t page = seq[w0 + i] * stride >> page_shift;
            page_slot *s = find(&t, page);
            if (s->stamp != t.stamp)
                claim(&t, s, page, groups++, 0);
            group[i] = s->a;
            start[group[i]]++;
        }
        for (int64_t g = 0, sum = w0; g < groups; g++) {
            int64_t c = start[g];
            start[g] = sum;
            sum += c;
        }
        for (int64_t i = 0; i < len; i++)
            out[start[group[i]]++] = seq[w0 + i];
        memset(start, 0, groups * sizeof *start);
    }
    free(t.slots);
    free(group);
    return 0;
}
