/* Per-bank FIFO DRAM service with open-page row hits, one sequential pass.
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
