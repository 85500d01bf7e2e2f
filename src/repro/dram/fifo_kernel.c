/* The simulator's two compiled loops, one sequential pass each:
 * flush_regions (the DRAM fast model) and shadow_pass (the data shadow).
 *
 * flush_regions: a flush of routed accesses through up to two DRAM
 * regions at once, each a set of per-bank FIFO queues with open-page row
 * hits (the Fig 3 controller: translate first, then each region
 * schedules its own accesses).
 *
 * Access i goes to region r = on ? on[i] : 0, whose row of `region` is
 * (base, shift, overhead, n_channels, n_banks, row_shift, hit, miss, cap,
 * R, F). Its region-local address is ((page[i] - base) << shift) |
 * offset[i], offset 0 when `offset` is NULL (AddressMap.local_address).
 * With a = local >> row_shift the queue is (a mod n_channels) * n_banks
 * + (a div n_channels) mod n_banks and the row a div (n_channels *
 * n_banks) (DramGeometry.queues_and_rows); shifts and masks stand in
 * for the division when both counts are powers of two.
 *
 * When R > 0 the region refreshes (dram/refresh.py): wall time t maps to
 * useful time u = k (R - F) + max(0, t mod R - F), k = t div R, the
 * recursion runs on u and the departure maps back with completion
 * semantics, wall(v) = j R + (v mod P ? F + v mod P : 0), j = v div P,
 * P = R - F. Otherwise u = t. With s the hit or miss cycles (hit iff
 * row == open_row[q]) and prev the queue's previous uncapped departure
 * in this segment (ready[q] on its first access in the segment):
 *
 *     d = max(u, prev) + s,   w = min(d - u, s + cap),
 *     latency[i] = wall(u + w) - t + overhead + add_all + extra[i]
 *
 * (extra 0 when NULL). At each segment end every queue touched in it
 * carries ready[q] = min(d_last, u_last + cap) into the next segment, so
 * the pass is one call per segment by definition, for each region.
 * open_row<r> and ready<r> are region r's per-queue state; they,
 * and counts[2r] (row hits) and counts[2r + 1] (accesses), are updated
 * only when the call succeeds. Returns 0, or stops at the first failure,
 * leaving latency partial: 1 an int64 overflow (nothing wraps), 2 bad
 * seg_starts, 3 a region-local address below 0 or past int64, 4 no
 * memory for the scratch state.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ADD(x, y, out) __builtin_add_overflow((x), (y), (out))

/* the columns of a region's row */
enum { BASE, SHIFT, OVERHEAD, CHANNELS, BANKS, ROW_SHIFT, HIT, MISS, CAP, INTERVAL, WINDOW, N_PARAM };

typedef struct {
    /* the address decode; page_bytes = 1 << shift, as a multiply is
     * cheaper than a variable shift */
    int64_t base, page_bytes, max_page, row_shift, n_ch, n_bk;
    int64_t ch_mask, ch_shift, bk_mask, row_bits;
    int pow2;
    /* service cycles and latency limit, indexed by hit (a table, so no
     * branch on the row-hit outcome); cycles added to every latency */
    int64_t cycles[2], limit[2], add, cap, interval, window;
    /* per queue: open row, carried readiness, and the last uncapped
     * departure and useful arrival in this segment */
    int64_t *open_row, *ready, *depart, *last_u;
    int64_t n_queues;
} Region;

static int log2_exact(int64_t x)
{
    return x > 0 && (x & (x - 1)) == 0 ? __builtin_ctzll((unsigned long long)x) : -1;
}

/* floor division and its non-negative remainder, for a divisor > 0 */
static inline int64_t floor_divmod(int64_t x, int64_t y, int64_t *rem)
{
    int64_t q = x / y, r = x % y;
    if (r < 0)
        q--, r += y;
    *rem = r;
    return q;
}

/* a segment starts: each queue departs from its carried readiness, and
 * its last arrival is set so that, if the segment leaves it untouched,
 * carry_out carries that readiness again (cap > 0, so this fits) */
static void carry_in(Region *g)
{
    for (int64_t q = 0; q < g->n_queues; q++) {
        g->depart[q] = g->ready[q];
        g->last_u[q] = INT64_MAX - g->cap;
    }
}

/* a segment ends: each queue carries min(d_last, u_last + cap) */
static int carry_out(Region *g)
{
    for (int64_t q = 0; q < g->n_queues; q++) {
        int64_t capped;
        if (ADD(g->last_u[q], g->cap, &capped))
            return 1;
        g->ready[q] = g->depart[q] < capped ? g->depart[q] : capped;
    }
    return 0;
}

static int serve(int64_t n, const uint8_t *on, const int64_t *page,
                 const int64_t *offset, const int64_t *arrival,
                 const int64_t *extra, int64_t n_seg, const int64_t *seg_starts,
                 Region *reg, int64_t n_regions, int64_t *latency, int64_t *tally)
{
    /* row hits, all and in region 1, and region 1's accesses */
    int64_t hits = 0, hits_1 = 0, count_1 = 0;
    if (n_seg < 1 || seg_starts[0] != 0)
        return 2;
    for (int64_t k = 0; k < n_seg; k++) {
        int64_t lo = seg_starts[k], hi = k + 1 < n_seg ? seg_starts[k + 1] : n;
        if (hi < lo || hi > n)
            return 2;
        for (int64_t r = 0; r < n_regions; r++)
            carry_in(reg + r);
        for (int64_t i = lo; i < hi; i++) {
            int r = on ? on[i] : 0;
            Region *g = reg + r;
            int64_t p, local, a, q, row, t = arrival[i], u = t;
            if (__builtin_sub_overflow(page[i], g->base, &p) || p < 0 || p > g->max_page)
                return 3;
            local = p * g->page_bytes | (offset ? offset[i] : 0);
            if (local < 0)
                return 3;
            a = local >> g->row_shift;
            if (g->pow2) {
                q = (a & g->ch_mask) * g->n_bk + (a >> g->ch_shift & g->bk_mask);
                row = a >> g->row_bits;
            } else {
                int64_t b = a / g->n_ch;
                q = (a - b * g->n_ch) * g->n_bk + b % g->n_bk;
                row = b / g->n_bk;
            }
            if (g->interval) {
                int64_t pos, periods = floor_divmod(t, g->interval, &pos);
                u = periods * (g->interval - g->window) + (pos > g->window ? pos - g->window : 0);
            }
            int64_t prev = g->depart[q], d, wait;
            int hit = row == g->open_row[q];
            hits += hit;
            hits_1 += hit & r;
            count_1 += r;
            if (ADD(u > prev ? u : prev, g->cycles[hit], &d) ||
                __builtin_sub_overflow(d, u, &wait))
                return 1;
            wait = wait < g->limit[hit] ? wait : g->limit[hit];
            g->depart[q] = d;
            g->last_u[q] = u;
            g->open_row[q] = row;
            if (g->interval) {
                /* u + wait <= d, so it fits */
                int64_t rem, periods = floor_divmod(u + wait, g->interval - g->window, &rem), wall;
                if (__builtin_mul_overflow(periods, g->interval, &wall) ||
                    (rem && ADD(wall, g->window + rem, &wall)) ||
                    __builtin_sub_overflow(wall, t, &wait))
                    return 1;
            }
            if (ADD(wait, g->add, &wait) || (extra && ADD(wait, extra[i], &wait)))
                return 1;
            latency[i] = wait;
        }
        for (int64_t r = 0; r < n_regions; r++)
            if (carry_out(reg + r))
                return 1;
    }
    /* (row hits, accesses) of region 0, then of region 1 */
    tally[0] = hits - hits_1, tally[1] = n - count_1;
    tally[2] = hits_1, tally[3] = count_1;
    return 0;
}

int flush_regions(int64_t n, const uint8_t *on, const int64_t *page,
                  const int64_t *offset, const int64_t *arrival,
                  const int64_t *extra, int64_t n_seg,
                  const int64_t *seg_starts, int64_t n_regions,
                  const int64_t (*region)[N_PARAM], int64_t *open_row0,
                  int64_t *ready0, int64_t *open_row1, int64_t *ready1,
                  int64_t add_all, int64_t *counts, int64_t *latency)
{
    Region reg[2];
    int64_t *state[4] = {open_row0, ready0, open_row1, ready1}, total = 0;
    if (n_regions < 1 || n_regions > 2)
        return 2;
    for (int64_t r = 0; r < n_regions; r++) {
        const int64_t *c = region[r];
        Region *g = reg + r;
        int ch = log2_exact(c[CHANNELS]), bk = log2_exact(c[BANKS]);
        if (c[SHIFT] < 0 || c[SHIFT] > 62)
            return 3;
        *g = (Region){
            .base = c[BASE], .page_bytes = (int64_t)1 << c[SHIFT],
            .max_page = INT64_MAX >> c[SHIFT], .row_shift = c[ROW_SHIFT],
            .n_ch = c[CHANNELS], .n_bk = c[BANKS], .ch_mask = c[CHANNELS] - 1,
            .ch_shift = ch, .bk_mask = c[BANKS] - 1, .row_bits = ch + bk,
            .pow2 = ch >= 0 && bk >= 0, .cycles = {c[MISS], c[HIT]}, .cap = c[CAP],
            .interval = c[INTERVAL], .window = c[WINDOW], .n_queues = c[CHANNELS] * c[BANKS],
        };
        if (ADD(c[MISS], c[CAP], &g->limit[0]) || ADD(c[HIT], c[CAP], &g->limit[1]) ||
            ADD(c[OVERHEAD], add_all, &g->add))
            return 1;
        total += g->n_queues;
    }
    int64_t *scratch = calloc(4 * total, sizeof *scratch), *next = scratch;
    if (!scratch)
        return 4;
    for (int64_t r = 0; r < n_regions; r++) {
        Region *g = reg + r;
        int64_t **arrays[] = {&g->open_row, &g->ready, &g->depart, &g->last_u};
        for (int j = 0; j < 4; j++, next += g->n_queues)
            *arrays[j] = next;
        memcpy(g->open_row, state[2 * r], g->n_queues * sizeof *next);
        memcpy(g->ready, state[2 * r + 1], g->n_queues * sizeof *next);
    }
    int64_t tally[4];
    int status = serve(n, on, page, offset, arrival, extra, n_seg, seg_starts,
                       reg, n_regions, latency, tally);
    if (status == 0)
        for (int64_t r = 0; r < n_regions; r++) {
            Region *g = reg + r;
            memcpy(state[2 * r], g->open_row, g->n_queues * sizeof *next);
            memcpy(state[2 * r + 1], g->ready, g->n_queues * sizeof *next);
            counts[2 * r] += tally[2 * r];
            counts[2 * r + 1] += tally[2 * r + 1];
        }
    free(scratch);
    return status;
}

/* shadow_pass: the data shadow's (datamodel/shadow.py) one rule for what a
 * location holds. It applies a queue of engine ops and checks a batch of
 * accesses in access order: a buffered chunk, a flush (no access), the
 * final sweep (reads, no op) or one of the protocol checker's replays.
 *
 * A location is a slot, n_slots + a machine page, or the bounce buffer;
 * its sub-block sb is cell[loc * n_sb + sb], holding (page, generation),
 * page -1 being garbage; generation[page * n_sb + sb] is the last written
 * generation. Op j is (before, kind, src, dst, n_landed) and applies, in
 * queue order, just before access `before`, or after the last access if
 * `before` is n (so a call with no access applies its ops alone):
 *   COPY  kills every link with an endpoint at dst, then copies the next
 *         n_landed sub-blocks of `landed` from src to dst;
 *   LINK  opens the link (src, dst); links has a spare row per op;
 *   CLOSE kills every link.
 * Access i is column i of `access`, whose five rows of n are page,
 * subblock, on, machine and write; it is at location on ? machine :
 * n_slots + machine, and one to a dead
 * page (Ω, a RAS spare) is skipped. A write bumps its generation and lands
 * (page, generation) at its cell and through every link from there; a
 * read whose cell holds anything else is a violation, appended to bad as
 * (i, found page, found gen, expected gen). Every location touched gets
 * held = 1. io holds the live link count, in and out, then gets (reads,
 * writes). Returns the violation count,
 * or -1 at the first page, sub-block or location out of range, leaving
 * the state partial.
 */
enum { COPY, LINK, CLOSE };

int64_t shadow_pass(int64_t n, const int64_t *access, int64_t n_ops,
                    const int64_t (*op)[5], const int64_t *landed,
                    int64_t n_pages, int64_t n_slots, int64_t n_locs,
                    int64_t n_sb, const uint8_t *dead, int64_t (*cell)[2],
                    uint8_t *held, int64_t *generation, int64_t (*links)[2],
                    int64_t *io, int64_t (*bad)[4])
{
    int64_t j = 0, n_bad = 0, n_link = io[0], *counts = io + 1;
    counts[0] = counts[1] = 0;
    for (int64_t i = 0; i <= n; i++) {
        for (; j < n_ops && op[j][0] <= i; j++) {
            int64_t kind = op[j][1], src = op[j][2], dst = op[j][3], kept = 0;
            if (kind == CLOSE) {
                n_link = 0;
                continue;
            }
            if (src < 0 || src >= n_locs || dst < 0 || dst >= n_locs)
                return -1;
            if (kind == LINK) {
                links[n_link][0] = src;
                links[n_link++][1] = dst;
                continue;
            }
            for (int64_t k = 0; k < n_link; k++)
                if (links[k][0] != dst && links[k][1] != dst)
                    links[kept][0] = links[k][0], links[kept++][1] = links[k][1];
            n_link = kept;
            held[src] = held[dst] = 1;
            for (int64_t k = 0; k < op[j][4]; k++, landed++) {
                if (*landed < 0 || *landed >= n_sb)
                    return -1;
                cell[dst * n_sb + *landed][0] = cell[src * n_sb + *landed][0];
                cell[dst * n_sb + *landed][1] = cell[src * n_sb + *landed][1];
            }
        }
        if (i == n)
            break;
        int64_t p = access[i], sb = access[n + i], write = access[4 * n + i];
        int64_t loc = access[2 * n + i] ? access[3 * n + i] : n_slots + access[3 * n + i];
        if (p < 0 || p >= n_pages || sb < 0 || sb >= n_sb)
            return -1;
        if (dead[p])
            continue;
        if (loc < 0 || loc >= n_locs)
            return -1;
        int64_t c = loc * n_sb + sb, *gen = generation + p * n_sb + sb;
        held[loc] = 1;
        counts[write ? 1 : 0]++;
        if (write) {
            cell[c][0] = p;
            cell[c][1] = ++*gen;
            for (int64_t k = 0; k < n_link; k++) {
                if (links[k][0] == loc) {
                    held[links[k][1]] = 1;
                    cell[links[k][1] * n_sb + sb][0] = p;
                    cell[links[k][1] * n_sb + sb][1] = *gen;
                }
            }
        } else if (cell[c][0] != p || cell[c][1] != *gen) {
            bad[n_bad][0] = i, bad[n_bad][1] = cell[c][0];
            bad[n_bad][2] = cell[c][1], bad[n_bad++][3] = *gen;
        }
    }
    io[0] = n_link;
    return n_bad;
}
