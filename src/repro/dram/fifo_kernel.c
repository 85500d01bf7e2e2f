/* The simulator's two compiled loops, one sequential pass each:
 * fifo_service (the DRAM fast model) and shadow_pass (the data shadow).
 *
 * fifo_service: per-bank FIFO DRAM service with open-page row hits.
 *
 * Access i goes to queue q = queue[i], row row[i], at arrival a. With s
 * the hit or miss cycles (hit iff row == open_row[q]) and prev the
 * queue's previous uncapped departure in this segment (ready[q] on its
 * first access in the segment):
 *
 *     d = max(a, prev) + s,   latency[i] = min(d - a, s + cap).
 *
 * At each segment end every queue touched in it carries
 * ready[q] = min(d_last, a_last + cap) into the next segment, so the
 * pass is one call per segment by definition. open_row and ready are
 * updated in place; scratch holds 4 * n_queues zeros. Returns 0, or stops
 * at the first failure: 1 an int64 overflow (nothing wraps), 2 bad
 * seg_starts, 3 a queue out of range, leaving the outputs partial.
 */
#include <stdint.h>

#define ADD(x, y, out) __builtin_add_overflow((x), (y), (out))

int fifo_service(int64_t n, const int64_t *queue, const int64_t *row,
                 const int64_t *arrival, int64_t n_seg,
                 const int64_t *seg_starts, int64_t n_queues,
                 int64_t *open_row, int64_t *ready, int64_t hit_cycles,
                 int64_t miss_cycles, int64_t cap, int64_t *scratch,
                 int64_t *latency, int64_t *n_hits)
{
    int64_t hit_limit, miss_limit, hits = 0;
    if (ADD(hit_cycles, cap, &hit_limit) || ADD(miss_cycles, cap, &miss_limit))
        return 1;
    /* per queue: last uncapped departure and arrival, the segment
     * (1-based) that last touched it; and the queues this segment touched */
    int64_t *depart = scratch, *last_arrival = scratch + n_queues;
    int64_t *stamp = scratch + 2 * n_queues, *touched = scratch + 3 * n_queues;

    for (int64_t k = 0; k < n_seg; k++) {
        int64_t lo = seg_starts[k], hi = k + 1 < n_seg ? seg_starts[k + 1] : n;
        int64_t n_touched = 0;
        if (lo < 0 || hi < lo || hi > n)
            return 2;
        for (int64_t i = lo; i < hi; i++) {
            int64_t q = queue[i], a = arrival[i], prev, d, wait;
            if (q < 0 || q >= n_queues)
                return 3;
            if (stamp[q] != k + 1) {
                stamp[q] = k + 1;
                touched[n_touched++] = q;
                prev = ready[q];
            } else {
                prev = depart[q];
            }
            int hit = row[i] == open_row[q];
            hits += hit;
            if (ADD(a > prev ? a : prev, hit ? hit_cycles : miss_cycles, &d) ||
                __builtin_sub_overflow(d, a, &wait))
                return 1;
            int64_t limit = hit ? hit_limit : miss_limit;
            latency[i] = wait < limit ? wait : limit;
            depart[q] = d;
            last_arrival[q] = a;
            open_row[q] = row[i];
        }
        for (int64_t j = 0; j < n_touched; j++) {
            int64_t q = touched[j], capped;
            if (ADD(last_arrival[q], cap, &capped))
                return 1;
            ready[q] = depart[q] < capped ? depart[q] : capped;
        }
    }
    *n_hits = hits;
    return 0;
}

/* shadow_pass: the data shadow's (datamodel/shadow.py) one rule for what a
 * location holds. It applies a queue of engine ops and checks a batch of
 * accesses in access order: a buffered chunk, a flush (no access), the
 * final sweep (reads, no op) or one of the protocol checker's replays.
 *
 * A location is a slot, n_slots + a machine page, or the bounce buffer;
 * its sub-block sb is cell loc * n_sb + sb, holding (cell_page, cell_gen),
 * page -1 being garbage; generation[page * n_sb + sb] is the last written
 * generation. Op j is (before, kind, src, dst, n_landed) and applies, in
 * queue order, just before access `before`, or after the last access if
 * `before` is n (so a call with no access applies its ops alone):
 *   COPY  kills every link with an endpoint at dst, then copies the next
 *         n_landed sub-blocks of `landed` from src to dst;
 *   LINK  opens the link (src, dst); links has a spare row per op;
 *   CLOSE kills every link.
 * Access i is at on[i] ? machine[i] : n_slots + machine[i]; one to a dead
 * page (Ω, a RAS spare) is skipped. A write bumps its generation and lands
 * (page, generation) at its cell and through every link from there; a
 * read whose cell holds anything else is a violation, appended to bad as
 * (i, found page, found gen, expected gen). Every location touched gets
 * held = 1, and counts gets (reads, writes). Returns the violation count,
 * or -1 at the first page, sub-block or location out of range, leaving
 * the state partial.
 */
enum { COPY, LINK, CLOSE };

int64_t shadow_pass(int64_t n, const int64_t *page, const int64_t *subblock,
                    const uint8_t *on, const int64_t *machine,
                    const uint8_t *write, int64_t n_ops, const int64_t (*op)[5],
                    const int64_t *landed, int64_t n_pages, int64_t n_slots,
                    int64_t n_locs, int64_t n_sb, const uint8_t *dead,
                    int64_t *cell_page, int64_t *cell_gen, uint8_t *held,
                    int64_t *generation, int64_t (*links)[2], int64_t *n_links,
                    int64_t *counts, int64_t (*bad)[4])
{
    int64_t j = 0, n_bad = 0, n_link = *n_links;
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
                cell_page[dst * n_sb + *landed] = cell_page[src * n_sb + *landed];
                cell_gen[dst * n_sb + *landed] = cell_gen[src * n_sb + *landed];
            }
        }
        if (i == n)
            break;
        int64_t p = page[i], sb = subblock[i];
        int64_t loc = on[i] ? machine[i] : n_slots + machine[i];
        if (p < 0 || p >= n_pages || sb < 0 || sb >= n_sb)
            return -1;
        if (dead[p])
            continue;
        if (loc < 0 || loc >= n_locs)
            return -1;
        int64_t c = loc * n_sb + sb, *gen = generation + p * n_sb + sb;
        held[loc] = 1;
        counts[write[i] ? 1 : 0]++;
        if (write[i]) {
            cell_page[c] = p;
            cell_gen[c] = ++*gen;
            for (int64_t k = 0; k < n_link; k++) {
                if (links[k][0] == loc) {
                    held[links[k][1]] = 1;
                    cell_page[links[k][1] * n_sb + sb] = p;
                    cell_gen[links[k][1] * n_sb + sb] = *gen;
                }
            }
        } else if (cell_page[c] != p || cell_gen[c] != *gen) {
            bad[n_bad][0] = i, bad[n_bad][1] = cell_page[c];
            bad[n_bad][2] = cell_gen[c], bad[n_bad++][3] = *gen;
        }
    }
    *n_links = n_link;
    return n_bad;
}
