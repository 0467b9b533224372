/* Compiled core of memloc's two sequential simulators, and their only
 * implementation in the package.
 *
 * memloc_filter replays a trace through the three-level LRU filter that
 * memsys.filter_to_dram models; memloc_simulate runs the FR-FCFS-Cap
 * scheduler behind dramsim.simulate.  Both must give results identical
 * to the Python loops in tests/reference_models.py (CacheHierarchy and
 * _simulate_reference), which tests/test_oracles.py compares them
 * against.  _core.py compiles this file on first use and loads it with
 * ctypes; without a C compiler memloc cannot filter or simulate.
 *
 * Both functions return 0, or -1 when memory runs out.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* One set-associative LRU level.  Within a set, ways are in recency
 * order, MRU last, as in the Python lists of the reference _Level. */
typedef struct {
    int64_t *line;  /* sets * ways lines */
    uint8_t *pf;    /* per way: HW-prefetched and not yet demand-hit */
    int64_t *used;  /* ways in use per set */
    int64_t ways, mask;
} level;

static int level_init(level *lv, int64_t sets, int64_t ways)
{
    lv->ways = ways;
    lv->mask = sets - 1;
    lv->line = malloc(sets * ways * sizeof *lv->line);
    lv->pf = calloc(sets * ways, 1);
    lv->used = calloc(sets, sizeof *lv->used);
    return lv->line && lv->pf && lv->used ? 0 : -1;
}

static void level_free(level *lv)
{
    free(lv->line);
    free(lv->pf);
    free(lv->used);
}

/* Hit: move the line to MRU and return its way index; miss: -1. */
static int64_t lookup(level *lv, int64_t line)
{
    int64_t base = (line & lv->mask) * lv->ways, n = lv->used[line & lv->mask];
    for (int64_t i = 0; i < n; i++) {
        if (lv->line[base + i] != line)
            continue;
        uint8_t pf = lv->pf[base + i];
        memmove(lv->line + base + i, lv->line + base + i + 1, (n - 1 - i) * sizeof *lv->line);
        memmove(lv->pf + base + i, lv->pf + base + i + 1, n - 1 - i);
        lv->line[base + n - 1] = line;
        lv->pf[base + n - 1] = pf;
        return base + n - 1;
    }
    return -1;
}

static int contains(const level *lv, int64_t line)
{
    int64_t base = (line & lv->mask) * lv->ways, n = lv->used[line & lv->mask];
    for (int64_t i = 0; i < n; i++)
        if (lv->line[base + i] == line)
            return 1;
    return 0;
}

/* Insert as MRU, evicting the LRU way (and its flag) when the set is full. */
static void fill(level *lv, int64_t line, uint8_t pf)
{
    int64_t set = line & lv->mask, base = set * lv->ways, n = lv->used[set];
    if (n >= lv->ways) {
        n = lv->ways - 1;
        memmove(lv->line + base, lv->line + base + 1, n * sizeof *lv->line);
        memmove(lv->pf + base, lv->pf + base + 1, n);
    }
    lv->line[base + n] = line;
    lv->pf[base + n] = pf;
    lv->used[set] = n + 1;
}

/* The stride prefetcher's page table: open addressing, doubled at half load. */
typedef struct {
    int64_t *page, *last, *stride;  /* page -1 marks a free slot */
    int64_t size, count;
} table;

static int table_init(table *t, int64_t size)
{
    t->size = size;
    t->count = 0;
    t->page = malloc(size * sizeof *t->page);
    t->last = malloc(size * sizeof *t->last);
    t->stride = malloc(size * sizeof *t->stride);
    if (!t->page || !t->last || !t->stride)
        return -1;
    memset(t->page, 0xff, size * sizeof *t->page);
    return 0;
}

static void table_free(table *t)
{
    free(t->page);
    free(t->last);
    free(t->stride);
}

static int64_t slot(const table *t, int64_t page)
{
    uint64_t i = ((uint64_t)page * 0x9e3779b97f4a7c15u) & (uint64_t)(t->size - 1);
    while (t->page[i] != -1 && t->page[i] != page)
        i = (i + 1) & (uint64_t)(t->size - 1);
    return (int64_t)i;
}

static int table_grow(table *t)
{
    table old = *t;
    if (table_init(t, old.size * 2)) {
        table_free(t);
        *t = old;
        return -1;
    }
    for (int64_t i = 0; i < old.size; i++) {
        if (old.page[i] == -1)
            continue;
        int64_t j = slot(t, old.page[i]);
        t->page[j] = old.page[i];
        t->last[j] = old.last[i];
        t->stride[j] = old.stride[i];
    }
    t->count = old.count;
    table_free(&old);
    return 0;
}

typedef struct {
    level lv[3];
    table pages;
    int64_t degree, distance, page_shift;  /* degree 0: no HW prefetcher */
    int64_t *st;  /* accesses[3], misses[3], hw issued, hw useful, sw seen, dram */
} hierarchy;

static void hw_prefetch(hierarchy *h, int64_t line)
{
    if (!contains(&h->lv[1], line)) {
        h->st[6]++;
        fill(&h->lv[1], line, 1);
    }
}

/* Train the per-page stride table on an L2 access (an L1 demand miss) and
 * issue its prefetches into L2: `degree` lines ahead once two consecutive
 * same-page deltas are equal, and the next line on an L2 miss. */
static int observe(hierarchy *h, int64_t line, int l2_miss)
{
    table *t = &h->pages;
    int64_t page = line >> h->page_shift, i = slot(t, page);
    if (t->page[i] == page) {
        int64_t delta = line - t->last[i];
        if (delta != 0 && delta == t->stride[i])
            for (int64_t k = 1; k <= h->degree; k++)
                hw_prefetch(h, line + delta * (h->distance + k - 1));
        t->last[i] = line;
        t->stride[i] = delta;
    } else {
        t->page[i] = page;
        t->last[i] = line;
        t->stride[i] = 0;
        if (++t->count * 2 > t->size && table_grow(t))
            return -1;
    }
    if (l2_miss)
        hw_prefetch(h, line + 1);
    return 0;
}

/* One demand access: 1 when it misses every level, 0 when not, -1 on no memory. */
static int demand(hierarchy *h, int64_t line)
{
    int64_t *st = h->st;
    st[0]++;
    if (lookup(&h->lv[0], line) >= 0)
        return 0;
    st[3]++;
    st[1]++;
    int64_t way = lookup(&h->lv[1], line);
    if (way >= 0 && h->lv[1].pf[way]) {
        h->lv[1].pf[way] = 0;
        st[7]++;
    }
    if (way < 0)
        st[4]++;
    if (h->degree && observe(h, line, way < 0))
        return -1;
    if (way >= 0) {
        fill(&h->lv[0], line, 0);
        return 0;
    }
    st[2]++;
    if (lookup(&h->lv[2], line) >= 0) {
        fill(&h->lv[1], line, 0);
        fill(&h->lv[0], line, 0);
        return 0;
    }
    st[5]++;
    fill(&h->lv[2], line, 0);
    fill(&h->lv[1], line, 0);
    fill(&h->lv[0], line, 0);
    st[9]++;
    return 1;
}

/* Filter n line numbers; keep[i] = 1 for the demand accesses that reach
 * DRAM.  Records of kind `prefetch_kind` are software prefetches that
 * fill level `sw_level` only.  stats receives the 10 counters in the
 * order of the hierarchy's st. */
int memloc_filter(int64_t n, const int64_t *lines, const uint8_t *kinds, uint8_t *keep,
                  const int64_t *sets, const int64_t *ways, int64_t sw_level,
                  int64_t prefetch_kind, int64_t degree, int64_t distance,
                  int64_t page_shift, int64_t *stats)
{
    hierarchy h = {.degree = degree, .distance = distance, .page_shift = page_shift,
                   .st = stats};
    int rc = 0;
    for (int k = 0; k < 3; k++)
        rc |= level_init(&h.lv[k], sets[k], ways[k]);
    rc |= table_init(&h.pages, 1024);
    for (int64_t i = 0; i < n && !rc; i++) {
        if (kinds[i] == prefetch_kind) {
            stats[8]++;
            if (lookup(&h.lv[sw_level], lines[i]) < 0)
                fill(&h.lv[sw_level], lines[i], 0);
        } else {
            int r = demand(&h, lines[i]);
            keep[i] = r > 0;
            rc = r < 0;
        }
    }
    for (int k = 0; k < 3; k++)
        level_free(&h.lv[k]);
    table_free(&h.pages);
    return rc ? -1 : 0;
}

/* FR-FCFS-Cap over n requests (bank, row, arrival cycle).  The window
 * holds the `depth` oldest arrived requests in arrival order; the oldest
 * row hit is served first unless an older request in front of it has
 * been bypassed max_bypass times.  counts[bank * 3 + kind] and events[i]
 * get the outcome, kind 0 hit, 1 closed bank, 2 conflict; latency[0..1]
 * the low and high 64 bits of the summed latencies. */
int memloc_simulate(int64_t n, const int64_t *bank, const int64_t *row,
                    const int64_t *arrive, int64_t nbanks, int64_t t_hit,
                    int64_t t_closed, int64_t t_conflict, int64_t max_bypass,
                    int64_t depth, int64_t *counts, uint8_t *events, uint64_t *latency)
{
    int64_t *open_row = malloc(nbanks * sizeof *open_row);
    int64_t *req = malloc(depth * sizeof *req), *bypass = malloc(depth * sizeof *bypass);
    if (!open_row || !req || !bypass) {
        free(open_row);
        free(req);
        free(bypass);
        return -1;
    }
    memset(open_row, 0xff, nbanks * sizeof *open_row);
    unsigned __int128 lat = 0;
    int64_t len = 0, next = 0, served = 0, t = 0;
    while (len || next < n) {
        while (next < n && len < depth && arrive[next] <= t) {
            req[len] = next++;
            bypass[len++] = 0;
        }
        if (!len) {
            t = arrive[next];
            continue;
        }
        int64_t pick = 0;
        for (int64_t pos = 0; pos < len; pos++) {
            if (open_row[bank[req[pos]]] == row[req[pos]]) {
                pick = pos;
                break;
            }
            if (bypass[pos] >= max_bypass)
                break;
        }
        int64_t r = req[pick], b = bank[r];
        memmove(req + pick, req + pick + 1, (len - 1 - pick) * sizeof *req);
        memmove(bypass + pick, bypass + pick + 1, (len - 1 - pick) * sizeof *bypass);
        len--;
        for (int64_t pos = 0; pos < pick; pos++)
            bypass[pos]++;
        int kind = open_row[b] == row[r] ? 0 : open_row[b] == -1 ? 1 : 2;
        open_row[b] = row[r];
        t = (t > arrive[r] ? t : arrive[r]) + (kind == 0 ? t_hit : kind == 1 ? t_closed : t_conflict);
        lat += (unsigned __int128)(t - arrive[r]);
        counts[b * 3 + kind]++;
        events[served++] = (uint8_t)kind;
    }
    latency[0] = (uint64_t)lat;
    latency[1] = (uint64_t)(lat >> 64);
    free(open_row);
    free(req);
    free(bypass);
    return 0;
}
