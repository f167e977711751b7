"""One epoch's blocking exchange, for tests that do not overlap it with
training: the scheduler's four steps in order, every window posted at once."""


def exchange_epoch(sched, epoch):
    """Plan, post, complete and commit ``sched``'s exchange for ``epoch``."""
    sched.scheduling(epoch)
    sched.synchronize(*sched.communicate())
    sched.clean_local_storage()
