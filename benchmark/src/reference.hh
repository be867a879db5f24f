/**
 * @file
 * The host-speed reference: a fixed kernel, independent of the
 * simulator's sources, whose wall time the untraced run measures next
 * to every campaign. On a shared host the same campaign runs up to
 * 20-40% slower in a busy phase that lasts minutes; the reference
 * slows with it, so campaign time divided by reference time (the
 * `*_ref` metrics) stays put while the simulator's own cost does not
 * change. See README.md, "End-to-end metrics".
 */

#ifndef SSTBENCH_REFERENCE_HH
#define SSTBENCH_REFERENCE_HH

namespace sstbench {

/**
 * Run the reference kernel once on each of @p threads threads at the
 * same time and return the wall time in seconds. Each thread models a
 * two-level set-associative LRU cache, as the simulator's hot loop
 * does, fed by a fixed xorshift address stream: three references in
 * four hit a 256-line region, the rest spread over 1 Mi lines. The
 * second level (16384 sets x 16 ways, 3 MiB of tags and stamps per
 * thread) is probed at random, so the kernel, like the simulator,
 * slows when other tenants crowd the host's last-level cache; with a
 * 384 KiB second level it tracked scale64's slow phases a quarter as
 * strongly. One call takes 70-100 ms on a 4-vCPU Xeon KVM guest.
 */
double referenceSeconds(int threads);

} // namespace sstbench

#endif // SSTBENCH_REFERENCE_HH
